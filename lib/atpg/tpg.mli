(** Test-set generation flow: random patterns with fault dropping, PODEM
    top-off for the faults random patterns miss, and reverse-order static
    compaction.

    Diagnosis experiments need realistic high-coverage stuck-at test sets
    — this module is the in-repo stand-in for the commercial ATPG used by
    the paper's evaluation. *)

type report = {
  patterns : Pattern.t;
  total_faults : int;  (** Collapsed stuck-at universe size. *)
  detected : int;
  untestable : int;  (** Proven redundant by PODEM. *)
  aborted : int;  (** PODEM gave up (counted as undetected). *)
  coverage : float;  (** detected / (total - untestable). *)
}

val flow_version : int
(** Version of {!generate}'s output.  Bump it whenever a change to the
    flow (random phase, PODEM, fill, fault dropping, compaction) changes
    the patterns it returns for any input: stored test sets key on it,
    so a bump makes every stored set stale.  The pinned test-set MD5s
    in the test suite catch such a change. *)

val generate :
  ?seed:int ->
  ?random_budget:int ->
  ?backtrack_limit:int ->
  Netlist.t ->
  report
(** Run the flow.  [random_budget] (default [4 * 63]) bounds the initial
    random-pattern phase; PODEM then targets every remaining collapsed
    fault.  The PODEM runs go across domains a window of survivors at a
    time and commit in fault order, so the report and the [tpg.*] work
    counters are the same on every domain count (DESIGN.md §6b). *)

val generate_ndetect :
  ?seed:int ->
  ?backtrack_limit:int ->
  n:int ->
  Netlist.t ->
  report
(** N-detect flow: every collapsed fault must be detected by at least
    [n] {e distinct} patterns before it is dropped.  N-detect sets are
    the standard lever for better diagnosis: each extra detection of a
    fault observes it through a (usually) different propagation path,
    which separates candidates the 1-detect set leaves tied.  [detected]
    counts faults that reached [n] detections; PODEM tops off with
    random-filled tests until no progress is possible.  The top-off
    runs on the calling domain: each run's fill seed is drawn from the
    flow's RNG in attempt order. *)

val compact : Netlist.t -> Pattern.t -> Pattern.t
(** Reverse-order static compaction: keep a pattern only if it detects a
    collapsed fault no later-kept pattern detects. *)

val coverage_of : Netlist.t -> Pattern.t -> float
(** Stuck-at coverage of an arbitrary pattern set over the collapsed
    universe (untestable faults are not excluded — use for relative
    comparisons). *)

(** Volume diagnosis: one warm session, many die datalogs.

    The production shape of the flow: every failing die of one design
    shares the netlist, the test set, the good-machine words and the
    signature cache — only the datalog differs.  The service creates one
    {!Session.t}, then drains the die queue with request-level
    parallelism: one whole diagnosis per OCaml domain, each participant
    (the calling domain included) running its kernels inline.  Per-die
    observability comes from a private {!Obs.sink} per diagnosis,
    merged after capture into the sink the caller bound, if any.  A die
    that cannot be read, is empty or is malformed becomes one
    {!failure} record and never stops the rest of the queue.

    Rendered diagnosis reports are byte-identical to single-shot
    [diagnose] runs of the same die.  {!run} fills the arena before its
    first die, so its counters depend only on the dies; dies passed to
    {!diagnose_die} one by one on a cold session split cache hits and
    misses by arrival order. *)

type die = { name : string; dlog : Datalog.t }

type die_result = {
  die : string;
  result : Noassume.result;
  text : string;  (** {!Report.render} output — the canonical report. *)
  report : Run_report.t;  (** Per-die counters (private-sink capture). *)
}

type net_rollup = {
  net : string;
  dies_implicated : int;  (** Dies whose diagnosis called this net out. *)
  minimal_dies : int;
      (** Of those, dies whose cover the exact backend proved minimum
          ([cover_minimum <> None]); 0 throughout under [Greedy]. *)
  explained_obs : int;  (** Total observations explained at this site. *)
}

type rollup = {
  dies : int;  (** Dies in the queue, failed ones included. *)
  diagnosed : int;
  failed : int;  (** Dies that could not be loaded (see {!failure}). *)
  minimal : int;  (** Dies diagnosed with a proven-minimal cover. *)
  nets : net_rollup list;
}

type failure = { name : string; error : string }
(** A die that could not be loaded: its name and why, the message
    prefixed with the file's path. *)

val load_die : Session.t -> string -> (die, failure) result
(** Read and parse one datalog file; the die is named by the file's
    basename without its extension.  An unreadable path, an empty file
    (a truncated transfer, not a passing die) and a malformed datalog
    are each a [failure], counted as ["volume.failed"].  Never raises
    on bad input and never leaks a descriptor. *)

val load_dir : Session.t -> string -> (die, failure) result list
(** {!load_die} over every [*.datalog] file of a directory, sorted by
    name. *)

val diagnose_die : ?config:Noassume.config -> Session.t -> die -> die_result
(** One die under a private sink, captured as the die's [report] and
    then merged into the sink bound in the calling domain (nothing when
    none is), so a caller's sink sees every die it drained.  [config]
    defaults to {!Noassume.default_config}.  On a session whose arena
    lacks a signature the die probes, the die simulates it (and, with
    other dies in flight, may race them for it). *)

val run :
  ?config:Noassume.config -> ?workers:int -> Session.t -> die list -> die_result list
(** Fill the session's arena ({!Session.prewarm}: one sweep at the
    process width on a cold session, nothing on a full one), then drain
    the queue across [workers] domains ({!Parallel.map_array}; default
    {!Parallel.default_domains}).  No die simulates a signature, so the
    scheduling changes no counter and no report.  With 2 or more
    workers every die's kernels run inline, whichever participant
    drains it, so the drain spawns at most [workers - 1] domains
    beyond the sweep's; one worker runs the dies in order with their
    kernels at the process width.  Result order follows input order
    whatever the worker count. *)

val die_json : die_result -> string
(** One die as JSON: summary numbers, the rendered report, and the
    per-die run report (timings off, so a die drained by {!run} gives
    the same text whatever the scheduling). *)

val error_json : failure -> string
(** One failed die as a [{"name", "error"}] JSON line — the record both
    [--batch-dir] and [--serve] write in place of its report. *)

val write_results :
  dir:string -> failed:failure list -> Session.t -> die_result list -> rollup
(** Write [<die>.json] per diagnosed die, an {!error_json} record as
    [<name>.json] per [failed] die, and [rollup.json] into [dir]
    (created if missing, one level), returning the rollup; its [dies]
    and [failed] count the failures.  The rollup ranks nets by how many
    dies implicate them (ties: dies with a proven-minimal cover, then
    explained observations, then name) — the volume signal that
    separates a systematic defect from random spot defects.  Under
    [--cover=exact] the tie-break prefers sites backed by
    provably-minimal multiplets over greedy-only implications. *)

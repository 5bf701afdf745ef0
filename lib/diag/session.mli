(** One warm engine context per (netlist, pattern set) problem.

    A session bundles everything a diagnosis needs beyond the datalog:
    the netlist and its CSR views, the test set, the good-machine words
    of every pattern block, the PO-reachability screen, the cross-phase
    signature cache, an optional per-session {!Obs.sink}, and the
    resolved configuration record.  Every phase — {!Explain},
    {!Scoring}, {!Noassume}, {!Single_diag}, {!Dict_diag},
    {!Slat_diag} — reads its cache and configuration from the session
    instead of process-global state, so two concurrent diagnoses can
    run under different configurations without touching shared mutable
    state.

    Sharing contract (DESIGN.md §11): a [t] is immutable after
    {!create} and safe to share across domains.  [net], [pats],
    [blocks], [goods] and [reach] are frozen; the cache instance is
    internally sharded and domain-safe; per-diagnosis scratch (fault
    simulators, batch slabs, triple buffers) is never stored here — each
    call allocates its own.  The volume service creates one session and
    drains thousands of datalogs against it, one diagnosis per domain.

    Ownership: {!create} always builds a fresh signature cache, and the
    session is its only holder.  One session is one problem with one
    cache: phases and trials that should share signatures share the
    session; two sessions on the same [(net, pats)] never share
    anything; a dropped session frees its cache. *)

(** Covering backend for {!Noassume}: the paper's greedy cover, or the
    exact minimum-cardinality cover via the implicit hitting-set loop
    ({!Hitting_set}, DESIGN.md §13).  [Exact] seeds with the greedy
    result as an upper bound and falls back to it (with a warning
    counter) when [cover_budget] is exhausted, so it never produces a
    worse multiplet than [Greedy]. *)
type cover = Greedy | Exact

val default_cover_budget : int
(** Node budget for the whole hitting-set loop (all branch-and-bound
    sub-solves summed); 2,000,000. *)

type config = {
  domains : int option;
      (** Kernel fan-out inside one diagnosis; [None] uses
          {!Parallel.default_domains}.  Results are identical for every
          value. *)
  cache_mb : int;  (** Signature-cache budget for this problem. *)
  prewarm : bool;
      (** Run {!prewarm} (whole-pool sweep + {!Sig_cache.freeze}) as
          part of {!create}. *)
  cover : cover;  (** Covering backend for {!Noassume} diagnoses. *)
  cover_budget : int;
      (** Node budget for the exact backend's hitting-set loop;
          ignored under [Greedy]. *)
  store_dir : string option;
      (** Signature-snapshot directory ([--store-dir]/[MDD_SIG_STORE]).
          With [prewarm], {!create} first tries
          {!Sig_cache.load_frozen} from here — a valid snapshot replaces
          the whole sweep with one file read — and saves the arena back
          ({!Sig_cache.save_frozen}) after a live sweep, so the fleet
          pays the sweep once per (netlist, pattern set).  Ignored
          without [prewarm]. *)
}

val default_config : config
(** [prewarm] off, [domains = None],
    [cache_mb = Sig_cache.default_budget_mb], [cover = Greedy],
    [cover_budget = default_cover_budget], [store_dir = None].  No
    environment switch is read here — the CLI layer resolves them once
    into a config record ([Cli_common.session_config]), including
    [MDD_SIG_CACHE_MB], [MDD_PREWARM], [MDD_COVER], [MDD_COVER_BUDGET]
    and [MDD_SIG_STORE]. *)

type t

val create : ?config:config -> ?sink:Obs.sink -> Netlist.t -> Pattern.t -> t
(** Build the context: a fresh {!Sig_cache.create} instance owned by
    this session (which computes the goods) and the PO-reachability
    screen.  Creation is the expensive, once-per-problem step; every
    diagnosis against the session then starts warm.  When
    [config.prewarm], also warms the frozen tier (under the session's
    sink if any), so the session comes back already frozen: with
    [config.store_dir] it first tries {!Sig_cache.load_frozen} — zero
    simulation on a hit — and otherwise runs {!prewarm}, saving the
    swept arena back to the store for the next process.  Reports served
    from a loaded snapshot are byte-identical to the live-sweep path. *)

val prewarm : t -> int
(** Fill the signature cache for the {e whole} fault pool — the
    equivalence-class representatives, the keys every phase probes — in
    one fork-join PPSFP sweep over
    {!Fault_sim.prepare_batch} slabs (shared good slab, per-slot delta
    slabs, 512-fault tiles), then {!Sig_cache.freeze} it (sweep results
    go to the packer as [~extra] entries, bypassing the mutable tier's
    eviction budget so the arena always holds the complete pool).
    Every later
    probe of the session's cache is a lock-free frozen-tier read; the
    mutable tier stays available for keys outside the pool.  Returns
    the number of faults simulated, counted as ["prewarm.faults"] under
    the ["prewarm"] phase.  Returns [0] without side effects when the
    cache is already frozen, so a second call costs nothing.  Cold
    probes use {!Sig_cache.peek}: hit/miss counters keep reflecting
    only probes a diagnosis made.  Diagnosis results are byte-identical
    with and without a prewarm, for every domain count. *)

val netlist : t -> Netlist.t
val patterns : t -> Pattern.t

val blocks : t -> Pattern.block array
(** The pattern blocks, in [Pattern.blocks] order.  Frozen. *)

val goods : t -> Logic_sim.net_values array
(** Good-machine words of every block.  Frozen; shared read-only. *)

val reach : t -> Po_reach.t
(** Per-net reachable-PO screen.  Frozen. *)

val cache : t -> Sig_cache.t option
(** The session's signature-cache instance.  Always [Some]; the option
    type is kept for existing callers. *)

val sink : t -> Obs.sink option
val config : t -> config

val with_sink : t -> (unit -> 'a) -> 'a
(** Run under the session's sink when it has one ({!Obs.with_sink});
    plain call otherwise. *)

val fault_triples : t -> Fault_list.fault array -> int array array
(** Signature triples for every fault, in the canonical
    [(block, PO, diff-word)] order of {!Fault_sim.iter_po_diffs}.
    Cache hits replay; misses are simulated through
    {!Fault_sim.simulate_batch} slabs in bounded tiles and stored back.
    This is the batched cold path of the baselines. *)

val signature_of_triples : t -> int array -> Bitvec.t array
(** {!Sig_cache.signature_of_triples} on the session's cache: expand one
    fault's triples into the per-PO, bit-per-pattern shape of
    {!Fault_sim.signature}. *)

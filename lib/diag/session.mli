(** One warm engine context per (netlist, pattern set) problem.

    A session bundles everything a diagnosis needs beyond the datalog:
    the netlist and its CSR views, the test set, the good-machine words
    of every pattern block, the PO-reachability screen, the cross-phase
    signature cache and the resolved configuration record.  Every
    phase — {!Explain}, {!Scoring}, {!Noassume}, {!Single_diag},
    {!Dict_diag}, {!Slat_diag} — reads its cache and configuration from
    the session instead of process-global state, so two concurrent
    diagnoses can run under different configurations without touching
    shared mutable state.

    Sharing contract (DESIGN.md §11): a [t] is immutable after
    {!create} and safe to share across domains.  [net], [pats],
    [blocks], [goods], [reach] and the representative table are frozen; the cache instance is
    domain-safe (lock-free reads, appends under one mutex); the good
    words are transposed once, at {!create}, into a slab that every
    {!simulator} reads and no sweep writes; per-diagnosis scratch (fault
    simulators with their delta slabs, triple buffers, the {!Scoring.t}
    scorer) is never stored here — each call allocates its own.  The volume
    service creates one session and drains thousands of datalogs
    against it, one diagnosis per domain.

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
  prewarm : bool;
      (** Run {!prewarm} (whole-pool sweep into the arena) as part of
          {!create}. *)
  cover : cover;  (** Covering backend for {!Noassume} diagnoses. *)
  cover_budget : int;
      (** Node budget for the exact backend's hitting-set loop;
          ignored under [Greedy]. *)
  store_dir : string option;
      (** The design's store directory ([--store-dir]/[MDD_SIG_STORE]):
          one {!Store_file} image per design, holding the netlist, the
          test set and the signature arena.  One rule, with or without
          [prewarm]: {!create} adopts the image's signatures when a
          valid image for this (netlist, pattern set) holds them, and
          otherwise (re)writes the image after whatever it built —
          with the signatures when [prewarm] swept them, without them
          when it did not.  [prewarm] only decides whether missing
          signatures are swept before the first diagnosis.  Reports
          are byte-identical either way. *)
}

val default_config : config
(** [prewarm] off, [domains = None], [cover = Greedy],
    [cover_budget = default_cover_budget], [store_dir = None].  No
    environment switch is read here — the CLI layer resolves them once
    into a config record ([Cli_common.session_config]), including
    [MDD_PREWARM], [MDD_COVER], [MDD_COVER_BUDGET] and
    [MDD_SIG_STORE]. *)

type t

val create :
  ?config:config -> ?image:Store_file.image option -> Netlist.t -> Pattern.t -> t
(** Build the context: a fresh {!Sig_cache.create} instance owned by
    this session (which computes the goods), with an empty arena, the
    PO-reachability screen and the class-representative table
    ({!representative_key}).  Creation is the expensive,
    once-per-problem step; every diagnosis against the session then
    reuses it, and each miss a diagnosis simulates is appended to the
    arena for the next.  With [config.store_dir], the design image
    decides the rest (see {!config}): a valid image's signature section
    is adopted ({!Sig_cache.adopt}, zero simulation), else [prewarm]
    sweeps and the image is saved for the next process.  [image] is
    the caller's own lookup of that image ({!Store_file.load} with
    {!Store_file.key} of [net] and [pats]), when it read the file to
    get [net] or [pats] from it: [Some (Some img)] adopts [img] and
    [Some None] means there was none, so the file is read once per
    process either way; when omitted, [create] reads it itself.
    Without [config.store_dir], [config.prewarm] sweeps and [image] is
    ignored.  Reports served from a loaded image are byte-identical to
    the live-sweep path. *)

val prewarm : t -> int
(** Fill the signature arena for the {e whole} fault pool — the
    equivalence-class representatives, the keys every phase probes —
    with one {!simulate} sweep over the pool keys the arena lacks,
    stored as one batch.  Every later probe of those keys is an arena
    hit.  Returns the number of faults simulated, counted as
    ["prewarm.faults"] under the ["prewarm"] phase: the whole pool on a
    fresh session, 0 after a store load or a previous prewarm.
    Presence is tested without touching the hit/miss counters, so they
    keep reflecting only probes a diagnosis made.  Diagnosis results
    are byte-identical with and without a prewarm, for every domain
    count. *)

val netlist : t -> Netlist.t
val patterns : t -> Pattern.t

val blocks : t -> Pattern.block array
(** The pattern blocks, in [Pattern.blocks] order.  Frozen. *)

val goods : t -> Logic_sim.net_values array
(** Good-machine words of every block.  Frozen; shared read-only. *)

val reach : t -> Po_reach.t
(** Per-net reachable-PO screen.  Frozen. *)

val simulator : t -> Fault_sim.t
(** A fresh fault simulator over the session's blocks, reading the
    session's transposed good slab ([Fault_sim.create ?share]) and
    owning only its delta slab and scratch: one per worker or scorer,
    never shared across domains.  Raises [Invalid_argument] on an empty
    pattern set. *)

val representative_key : t -> int -> int
(** [representative_key t k]: the {!Sig_cache.key} of the class
    representative of the fault with key [k], read from a table
    {!create} flattens once from {!Fault_list.collapse}.  Frozen, so
    any number of domains may read it.  Every signature lookup keys by
    it: {!Explain} rows, {!prewarm} and the baselines share one arena
    entry per class. *)

val representatives : t -> Fault_list.fault array
(** One fault per structural equivalence class, ascending — what
    {!Fault_list.representatives} lists, read from the same table: the
    pool {!prewarm}, [Single_diag] and [Dict_diag] look up. *)

val cache : t -> Sig_cache.t option
(** The session's signature-cache instance.  Always [Some]; the option
    type is kept for existing callers. *)

val config : t -> config

val simulate : t -> Fault_list.fault array -> int array array
(** Signature triples for every fault, in the canonical
    [(block, PO, diff-word)] order of {!Fault_sim.simulate_batch}
    (blocks ascending, then the fault's reachable POs ascending),
    freshly simulated: the cache is neither probed nor stored.  The
    engine's one cold path — {!Explain.build_session}'s misses,
    {!fault_triples} and {!prewarm} all call it.  One fork-join PPSFP
    sweep, one {!simulator} per drain slot, chunked by cost (reachable
    POs x remaining depth) into tiles of at most 512 faults.  Results
    are written per fault index, so they are identical for every
    [config.domains]. *)

val fault_triples : t -> Fault_list.fault array -> int array array
(** {!simulate}, through the cache: the batch is looked up with one
    {!Sig_cache.missing}, the misses are simulated and stored back as
    one batch, and every row is decoded from the arena.  The cold path
    of the baselines ({!Single_diag}, {!Dict_diag}). *)

val signature_of_triples : t -> int array -> Bitvec.t array
(** {!Sig_cache.signature_of_triples} on the session's cache: expand one
    fault's triples into the per-PO, bit-per-pattern signature shape. *)

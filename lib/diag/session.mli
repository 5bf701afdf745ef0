(** One warm engine context per (netlist, pattern set) problem.

    A session bundles everything a diagnosis needs beyond the datalog:
    the netlist and its CSR views, the test set, the good-machine words
    of every pattern block, the PO-reachability screen, the cross-phase
    signature cache.  Every phase — {!Explain}, {!Scoring},
    {!Noassume}, {!Single_diag}, {!Dict_diag}, {!Slat_diag} — reads
    the problem and its cache from the session instead of
    process-global state.  The session holds no engine option: each
    diagnosis takes its own ([Noassume.config], covering backend
    included), so two concurrent diagnoses on one session can run under
    different configurations — one die greedy, another exact — without
    touching shared mutable state.  The kernels' width is the process
    width, {!Parallel.default_domains}.

    Sharing contract (DESIGN.md §11): a [t] is immutable after
    {!create} and safe to share across domains.  [net], [pats],
    [blocks], [reach] and the representative table are frozen; the
    cache instance is domain-safe (lock-free reads, appends under one
    mutex); the good machine is simulated and transposed once, at
    {!create}, into one {!Fault_sim.good} that every {!simulator} and
    every good-value screen reads and nothing writes; per-diagnosis
    scratch (fault simulators with their delta slabs, triple buffers,
    the {!Scoring.t} scorer) is never stored here — each call allocates
    its own.  The volume service creates one session and drains
    thousands of datalogs against it, one diagnosis per domain.

    Ownership: {!create} always builds a fresh signature cache, and the
    session is its only holder.  One session is one problem with one
    cache: phases and trials that should share signatures share the
    session; two sessions on the same [(net, pats)] never share
    anything; a dropped session frees its cache.

    {!create} does no file I/O and leaves the arena empty.  Who fills
    it is decided by the run, not by an option: with a store,
    [Design.session] (in [lib/expt]) adopts the design image's arena or
    sweeps it with {!prewarm} and saves it; the command-line drains of
    many dies call {!prewarm} before their first; a single die without
    a store fills only what it misses. *)

type t

val create : Netlist.t -> Pattern.t -> t
(** Build the context: the pattern blocks and their good machine
    (phase ["session.goods"]), the PO-reachability screen, the
    class-representative table ({!representative_key}) and a fresh
    {!Sig_cache.create} instance owned by this session, with an empty
    arena.  Creation is the expensive,
    once-per-problem step; every diagnosis against the session then
    reuses it, and each miss a diagnosis simulates is appended to the
    arena for the next.  No file is read or written. *)

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

val good : t -> Fault_sim.good
(** The good machine of every block, net-major.  Frozen; shared
    read-only by every simulator and screen. *)

val reach : t -> Po_reach.t
(** Per-net reachable-PO screen.  Frozen. *)

val simulator : t -> Fault_sim.t
(** A fresh fault simulator over the session's {!good}, reading it in
    place and owning only its delta slab and scratch: one per worker or
    scorer, never shared across domains.  Raises [Invalid_argument] on an empty
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

val simulate : t -> Fault_list.fault array -> int array array
(** Signature triples for every fault, in the canonical
    [(block, PO, diff-word)] order of {!Fault_sim.simulate_batch}
    (blocks ascending, then the fault's reachable POs ascending),
    freshly simulated: the cache is neither probed nor stored.  The
    engine's one cold path — {!Explain.build_session}'s misses,
    {!fault_triples} and {!prewarm} all call it.  One fork-join PPSFP
    sweep at the process width ({!Parallel.default_domains}; inline
    when called from inside a {!Parallel} region), one {!simulator} per
    drain slot, chunked by cost (reachable POs x remaining depth) into
    tiles of at most 512 faults.  Results are written per fault index,
    so they are identical for every width. *)

val fault_triples : t -> Fault_list.fault array -> int array array
(** {!simulate}, through the cache: the batch is looked up with one
    {!Sig_cache.missing}, the misses are simulated and stored back as
    one batch, and every row is decoded from the arena.  The cold path
    of the baselines ({!Single_diag}, {!Dict_diag}). *)

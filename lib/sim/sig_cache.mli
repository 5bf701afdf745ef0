(** Cross-phase fault-signature cache.

    Every diagnosis phase — the explanation matrix, the single-fault and
    dictionary baselines, and each campaign trial — fault-simulates the
    same stuck lines against the same circuit and test set.  The result
    of one such simulation depends only on [(netlist, pattern set,
    site, polarity)], never on the datalog, so it is memoised here once
    and replayed everywhere else.

    A cached signature is the flat triple list
    [(block index, PO position, diff word); ...] exactly as
    {!Fault_sim.iter_po_diffs} reports it block by block: blocks
    ascending, PO positions ascending within a block, only non-zero
    masked diff words.  That compact form replays into an explanation
    matrix without touching the simulator and expands into the
    per-output {!Bitvec.t} signatures the baselines consume.

    Ownership: each [Diag.Session] creates exactly one instance with
    {!create} and owns it.  There is no process-wide registry and no
    on/off switch: two sessions on the same problem hold two independent
    caches, sharing a cache means sharing the session, and a dropped
    session frees its cache.

    Concurrency and determinism: an instance is shared across domains.
    The cache is {e two-tier} (DESIGN.md §12).  The mutable tier —
    buckets sharded under per-shard mutexes, so concurrent probes and
    stores never block the whole cache — is the write path and serves
    every read until {!freeze} publishes the frozen tier: an immutable,
    densely indexed snapshot ([key ~site ~stuck] is the array index —
    no hashing) that answers reads with no synchronization beyond one
    [Atomic.get].  Keys absent from the snapshot fall through to the
    mutable tier, which keeps accepting writes after the freeze.  A
    key's value is a pure function of the problem, so whatever
    interleaving wins a store race, every reader sees the same
    triples — results of cached computations are bit-identical to
    uncached ones for every domain count and whether or not a freeze
    intervened.  Only the hit/miss {e counters} depend on scheduling
    when several domains race on a cold key.

    Memory is bounded per instance: each shard of the {e mutable} tier
    evicts in insertion (FIFO) order once its share of the 64 MB word
    budget is exceeded.  Eviction only ever costs a
    re-simulation.  The frozen tier is exempt: it snapshots whatever
    the mutable tier holds at {!freeze} time and never grows.

    Counters (DESIGN.md §9): ["cache.hits"], ["cache.misses"],
    ["cache.frozen_hits"], ["cache.evictions"]. *)

type t
(** One cache for one (netlist, pattern set) problem, owned by the
    session that created it. *)

val create : ?budget_mb:int -> Netlist.t -> Pattern.t -> t
(** A fresh, empty instance.  Creation computes the good-machine words
    of every block eagerly (they are shared by all phases through
    {!goods}).  The mutable tier's budget is 64 MB; [budget_mb] (used
    when at least 1) exists so tests can reach FIFO eviction on small
    problems. *)

val goods : t -> Logic_sim.net_values array
(** Good-machine words of every block, in [Pattern.blocks] order.
    Read-only; shared across domains. *)

val blocks : t -> Pattern.block array
(** The pattern blocks, in [Pattern.blocks] order. *)

val key : site:Netlist.net -> stuck:bool -> int
(** Canonical bucket key of a stuck fault ([2*site + stuck]).  Callers
    that collapse equivalence classes should key by the class
    representative so all phases share one entry per class. *)

val find : t -> int -> int array option
(** Cached triples for a key.  After {!freeze}, keys in the snapshot
    are answered lock-free (bumping ["cache.frozen_hits"]); all other
    probes go through the shard mutex and bump the hit/miss
    counters. *)

type probe_result =
  | Frozen  (** In the frozen arena — stream it with {!iter_frozen}. *)
  | Warm of int array  (** In the mutable tier (the shared boxed array). *)
  | Cold  (** Not cached. *)

val probe : t -> int -> probe_result
(** Where a key lives, with {!find}'s counter semantics but {e without}
    decoding the frozen arena — [Frozen] answers from the presence
    bitmap alone.  Replay loops that consume triples one at a time pair
    this with {!iter_frozen} and never allocate; callers that need the
    whole array use {!find}.  A [Warm] array is shared, so holding it
    keeps the row immune to FIFO eviction between probe and use. *)

val iter_frozen : t -> int -> (int -> int -> int -> unit) -> unit
(** Stream one frozen key's triples as [f block po_word diff_word]
    calls, in canonical order, decoding straight out of the arena with
    no allocation.  The key must be in the frozen tier (a {!probe} that
    answered [Frozen] — the tier is immutable, so the answer cannot go
    stale); raises [Invalid_argument] otherwise.  Touches no
    counters. *)

val freeze : ?extra:(int * int array) array -> t -> unit
(** Pack the mutable tier into the frozen arena and publish it: one
    contiguous byte slab of triples — block and PO indices as varint
    deltas, each diff word as 8 fixed little-endian bytes — with a flat
    per-key offset index (no hashing, no per-key boxing — DESIGN.md
    §12), read by {!find}, {!probe} and {!iter_frozen} with no locks (one [Atomic.get]
    publishes the arena safely across domains; the bytes are never
    written again).  [extra] entries are packed as well, {e without}
    passing through the mutable tier or its eviction budget —
    [Session.prewarm] hands its whole-pool sweep results here so a
    100k-fault pool freezes complete instead of FIFO-evicting mid-sweep.
    The mutable tier stays live for keys the arena lacks — stores after
    the freeze land there and are still found.  Idempotent; re-freezing
    re-snapshots.  Publishes the arena footprint as the
    ["cache.frozen_bytes"] counter. *)

val is_frozen : t -> bool
(** Whether {!freeze} or {!load_frozen} has published a frozen tier on
    this instance. *)

val frozen_bytes : t -> int
(** Resident footprint of the published arena in bytes (slab + offset
    index + presence bitmap); 0 before a freeze. *)

(** {1 Disk snapshots}

    The frozen arena is position-independent bytes, so it doubles as an
    on-disk format: a volume fleet pays the whole-pool prewarm sweep
    once per (netlist, pattern set) and every later process adopts the
    arena with zero simulation.  The file is a {!Store_file} envelope
    (magic ["MDDSIGST"], encode version 2): named by a digest of the
    netlist structure and validated against a header carrying the
    encode version and a digest of (netlist structure, pattern set) —
    plus a content digest over the body — so a snapshot either
    reproduces the live sweep byte for byte or is rejected (counter
    ["store.rejects"]) and the caller falls back to prewarming.
    Counters: ["store.saves"], ["store.loads"], ["store.rejects"]. *)

val save_frozen : dir:string -> t -> bool
(** Write the published arena under [dir] (created if missing),
    atomically (temp file + rename).  False when nothing is frozen yet
    or the write failed; true bumps ["store.saves"]. *)

val load_frozen : dir:string -> t -> bool
(** Read, validate and publish a snapshot from [dir] as this instance's
    frozen tier — no simulation.  False when no file exists (a cold
    fleet, not counted) or validation rejected it (truncation, foreign
    magic, stale encode version, problem-digest mismatch, body
    corruption, a key whose triples do not fill its byte range exactly
    — each bumping ["store.rejects"]); the instance is left
    exactly as it was, so the caller's live-prewarm fallback sees a
    clean cache.  True bumps ["store.loads"]. *)

val store_path : dir:string -> t -> string
(** The snapshot file {!save_frozen}/{!load_frozen} use for this
    problem under [dir] (exposed for tests and tooling). *)

val store : t -> int -> int array -> unit
(** Insert (or overwrite) a key's triples, evicting FIFO-oldest entries
    of the shard past its budget share.  The array is owned by the
    cache afterwards; do not mutate it. *)

val signature_of_triples : t -> int array -> Bitvec.t array
(** Expand triples into the per-PO, bit-per-pattern signature shape of
    {!Fault_sim.signature}. *)

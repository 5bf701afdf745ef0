(** Cross-phase fault-signature cache.

    Every diagnosis phase — the explanation matrix, the single-fault and
    dictionary baselines, and each campaign trial — fault-simulates the
    same stuck lines against the same circuit and test set.  The result
    of one such simulation depends only on [(netlist, pattern set,
    site, polarity)], never on the datalog, so it is memoised here once
    and replayed everywhere else.

    A cached signature is the flat triple list
    [(block index, PO position, diff word); ...] exactly as
    {!Fault_sim.simulate_batch} reports it: blocks ascending, PO
    positions ascending within a block, only non-zero
    masked diff words.  That compact form replays into an explanation
    matrix without touching the simulator, and the baselines score it
    as it stands ([Scoring.score_triples]).

    Ownership: each [Diag.Session] creates exactly one instance with
    {!create} and owns it.  There is no process-wide registry and no
    on/off switch: two sessions on the same problem hold two independent
    caches, sharing a cache means sharing the session, and a dropped
    session frees its cache.

    Storage (DESIGN.md §12): one append-only packed arena per instance
    — a byte slab of encoded triples, a per-key start index and a
    presence bitmap — that starts empty, grows by one {!store} batch at
    a time, and is saved to or loaded from disk whole.  Its size is
    bounded by the problem: at most one row per key, and a key's row
    never changes, so nothing is ever evicted.

    Concurrency and determinism: an instance is shared across domains.
    Reads ({!mem}, {!missing}, {!find}, {!decode}) take no lock: each
    is one [Atomic.get] of the current arena version plus, for a
    decode, one key's bytes.  Appends are serialised by one mutex and publish a new
    version with one [Atomic.set]; nothing a published version can reach
    is ever written again.  A key's value is a pure function of the
    problem, so when two domains race to store one key the first writer
    wins and every reader sees the same triples — results of cached
    computations are bit-identical to uncached ones for every domain
    count.  Only the hit/miss {e counters} depend on scheduling when
    several domains race on a cold key.

    Counters (DESIGN.md §9): ["cache.hits"], ["cache.misses"] (one per
    key a {!find} or {!missing} looked up, added once per call),
    ["cache.frozen_bytes"] (the arena's footprint). *)

type t
(** One cache for one (netlist, pattern set) problem, owned by the
    session that created it. *)

val create : Netlist.t -> Pattern.t -> t
(** A fresh instance with an empty arena.  Simulates nothing: the
    problem is kept only to key and write its design image. *)

val key : site:Netlist.net -> stuck:bool -> int
(** Canonical bucket key of a stuck fault ([2*site + stuck]).  Callers
    that collapse equivalence classes should key by the class
    representative so all phases share one entry per class. *)

type buf = { mutable data : int array; mutable len : int }
(** A growable triple buffer owned by its caller: after {!decode},
    [data.(0 .. len - 1)] holds one key's triples,
    [block; po; word; block; po; word; ...] in canonical order.  Reuse
    one buffer across keys and no row allocates. *)

val buffer : unit -> buf
(** An empty buffer; it grows on the first {!decode} that needs room. *)

val decode : t -> int -> buf -> unit
(** The one decoder: [decode t k b] writes key [k]'s triples into [b]
    straight out of the arena, growing [b.data] only when the row does
    not fit.  The key must be in the arena (reported present by
    {!missing} or {!mem}, or passed to a {!store} that returned — keys
    are never removed, so the answer cannot go stale); raises
    [Invalid_argument] otherwise.  Touches no counters. *)

val find : t -> int -> int array option
(** Cached triples for one key, decoded by {!decode} into a fresh
    array.  Bumps ["cache.hits"] or ["cache.misses"]. *)

val missing : t -> int array -> int array
(** [missing t keys]: the positions [i], ascending, of the keys the
    arena lacks, tested against one arena version.  Bumps
    ["cache.hits"] and ["cache.misses"] once each, by the batch's
    totals — what one {!find} per key would add, without a counter
    bump per key.  Callers that look up a batch ([Explain]'s rows, the
    baselines' pool) use it, then {!decode} the hits. *)

val mem : t -> int -> bool
(** Whether the arena holds a key, without the counters, for callers
    that are not a diagnosis looking up a signature ([Session.prewarm]
    picking the keys it still has to sweep). *)

val store : t -> int array -> int array array -> unit
(** [store t keys rows] appends [rows.(i)] as the triples of
    [keys.(i)], as one segment: every row is encoded, then, under the
    append lock, the rows whose keys the arena lacks are copied into
    the slab and published together with one [Atomic.set].  A key that
    is already present (or repeats earlier in the batch) keeps its
    first row — values are pure, so it is the same row.  The slab holds
    block and PO indices as varint deltas and each diff word as 8 fixed
    little-endian bytes.  Raises [Invalid_argument] when the arrays
    differ in length or a key is outside [0, 2 * num_nets).  Bumps
    ["cache.frozen_bytes"] by the growth of the footprint. *)

val frozen_bytes : t -> int
(** Footprint of the arena in bytes: slab bytes in use, start index and
    presence bitmap; 0 while nothing has been stored or loaded. *)

(** {1 Disk snapshots}

    The arena is position-independent bytes, so it doubles as an
    on-disk format: a volume fleet pays the whole-pool prewarm sweep
    once per (netlist, pattern set) and every later process adopts the
    arena with zero simulation.  It is the signature section of the
    design's {!Store_file} image, beside the netlist and the test set:
    the file is named by the netlist's {!Netlist.source} and keyed by
    {!Store_file.key} of the netlist and the pattern set, so a
    snapshot either reproduces the live sweep byte for byte or is
    rejected (counter ["store.rejects"]) and the caller falls back to
    prewarming.  When to load, adopt, prewarm and re-save is decided in
    one place, [Design.session] in [lib/expt]; {!save_frozen} is the
    one image writer.  Counters: ["store.saves"], ["store.loads"],
    ["store.rejects"]. *)

val save_frozen : dir:string -> t -> bool
(** Write the design image — the netlist, the pattern set and the
    current arena, or no signature section while the arena is empty —
    under [dir] (created if missing), atomically (temp file + rename).
    Keys are written in key order, so the file depends only on which
    keys are present, never on the order they were stored in.  False
    when the write failed; true bumps ["store.saves"]. *)

val load_frozen : dir:string -> t -> bool
(** Read and check the design image under [dir] and publish its
    signature section as this instance's arena, replacing whatever it
    held — no simulation.  False when no file exists (a cold fleet, not
    counted), when the image holds no signature section, or when
    validation rejected it (truncation, foreign magic, stale version,
    key mismatch, a failed checksum, a key whose triples do not fill
    its byte range exactly — each bumping ["store.rejects"]); the
    instance is left exactly as it was, so the caller's live-prewarm
    fallback sees a clean cache.  An accepted image bumps
    ["store.loads"]. *)

val adopt : t -> Store_file.image -> bool
(** {!load_frozen} on an image the caller already loaded for this
    problem: walk its signature section and publish it.  False when
    the image has none, or when the walk rejects it (counted in
    ["store.rejects"]); the instance is then left as it was. *)

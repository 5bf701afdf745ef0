(** Fork-join domain batches for data-parallel kernels.

    The diagnosis hot paths — candidate-matrix construction, multiplet
    scoring, campaign trials — are all loops over independent index
    ranges.  This module runs such loops across OCaml 5 domains
    (stdlib [Domain] + [Atomic] only, no external dependencies).

    Each batch spawns its worker domains and joins them before
    returning, leaving no idle domains behind.  That is deliberate: an
    idle parked domain still has to answer every stop-the-world
    handshake (minor collections, major-cycle phase changes), which on
    a host with fewer cores than domains taxes {e all} code in the
    process — measured at roughly 0.5 ms per parked domain per
    collection on a single-CPU box.  A spawn+join pair costs about a
    millisecond, so call these functions only for batches that dwarf a
    few spawns and run small regions inline (pass [~domains:1] or keep
    the region sequential).

    Determinism contract: work is partitioned into contiguous index
    chunks whose boundaries depend only on the inputs, each chunk's
    writes are keyed on its chunk index, and reductions combine chunk
    results in index order on the calling domain.  Given a pure (or
    disjoint-write) body, results are identical for every domain count,
    including the sequential [domains <= 1] fallback — which runs the
    body inline and pays no spawn or synchronisation overhead.

    The effective domain count of a call is, in decreasing precedence:
    the [?domains] argument, the value given to {!set_domains}, the
    [MDD_DOMAINS] environment variable, then
    [Domain.recommended_domain_count ()] capped at {!max_domains}.
    Nested calls from inside a worker run sequentially (no domain
    explosion, no deadlock). *)

val max_domains : int
(** Hard cap on the per-batch domain count (64). *)

val default_domains : unit -> int
(** The domain count used when [?domains] is omitted; at least 1. *)

val set_domains : int -> unit
(** Override the process-wide default (clamped to [1 .. max_domains]).
    Used by the [--domains] CLI flag; takes precedence over
    [MDD_DOMAINS]. *)

val parallel_for : ?domains:int -> int -> (int -> int -> unit) -> unit
(** [parallel_for n body] partitions [0, n) into at most [domains]
    contiguous chunks and calls [body lo hi] (half-open) once per chunk,
    in parallel.  [body] must only write state disjoint per chunk.
    Returns when every chunk is complete; completed-chunk writes are
    visible to the caller. *)

val parallel_for_weighted :
  ?domains:int ->
  ?chunks_per_domain:int ->
  weights:int array ->
  (int -> int -> unit) ->
  unit
(** [parallel_for_weighted ~weights body] is {!parallel_for} over
    [0, Array.length weights), but chunk boundaries equalise the sum of
    per-index [weights] instead of the index count, and the range is
    oversplit into [chunks_per_domain] (default 4) chunks per domain so
    the shared cursor absorbs weight-estimate error.  Use when
    per-index cost varies widely (e.g. fault fanout-cone size in
    [Session.simulate]); weights below 1 count as 1.  Chunk boundaries
    depend only on the weights, so results of disjoint-write bodies
    remain deterministic for every domain count. *)

val weighted_chunks :
  ?domains:int ->
  ?chunks_per_domain:int ->
  ?min_chunk_weight:int ->
  ?max_chunk_size:int ->
  weights:int array ->
  unit ->
  (int * int) array
(** The chunk plan behind {!parallel_for_weighted}, exposed so callers
    can preallocate per-chunk scratch {e before} entering the parallel
    region (allocation inside a region triggers stop-the-world
    collections that stall every active domain — ruinous when domains
    outnumber cores).  Chunks are non-empty, contiguous, in index
    order, and cover [0, Array.length weights); a single chunk is
    returned when the effective width is 1 and no [max_chunk_size] is
    given.

    [min_chunk_weight] (default 0: off) merges adjacent chunks until
    each carries at least that much weight — so a batch left almost
    empty by an upstream screen (e.g. candidates that hit a warm
    signature cache) collapses to one or two chunks and runs inline
    instead of paying domain spawns that dwarf the work.

    [max_chunk_size] (default: unbounded) splits any chunk longer than
    that many {e indices} into near-equal pieces, after the weight
    balancing and merging.  This turns the plan into a sequence of
    bounded tiles: the batched fault simulation in [Session.simulate]
    treats each chunk as a (fault-batch x block-set) tile whose fault
    axis must stay small, whatever weight the balancer packed into it —
    and, unlike the pure balancing path, the cap applies even at an
    effective width of 1, so single-domain runs see the same tile
    boundaries.  The plan still depends only on the weights and the
    arguments, preserving determinism. *)

val run_plan : ?domains:int -> (int * int) array -> (int -> int -> int -> unit) -> unit
(** [run_plan plan body] calls [body i lo hi] once per chunk of a
    {!weighted_chunks} plan, across at most [domains] domains (the
    caller is one of them; a 1-chunk plan runs entirely inline).
    [body] must only write state disjoint per chunk — key the writes on
    the chunk index [i], since chunk-to-domain assignment is dynamic.
    Pass the same [?domains] given to {!weighted_chunks}. *)

val plan_slots : ?domains:int -> (int * int) array -> int
(** Number of drain slots {!run_plan_slotted} will use for the plan
    under the same [?domains]: 1 when the plan runs inline, otherwise
    the caller plus one per spawned worker.  Callers preallocate one
    scratch structure per slot before entering the region. *)

val run_plan_slotted :
  ?domains:int -> (int * int) array -> (slot:int -> int -> int -> int -> unit) -> unit
(** {!run_plan}, but the body also receives the drain [slot] (in
    [0 .. plan_slots plan - 1]) of the participant running the chunk.
    Chunk-to-slot assignment is dynamic and non-deterministic; a body
    may key {e scratch reuse} on the slot (heavy per-worker state such
    as the batched simulator's transposed delta slabs is allocated per
    slot, not per chunk) but must still key all {e result} writes on
    the chunk index, so the output never depends on the assignment.
    Pass the same [?domains] given to {!weighted_chunks}. *)

val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array f a] is [Array.map f a], chunked across domains.  [f] is
    applied exactly once per element; the result preserves order. *)

val mapi_array : ?domains:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** [mapi_array f a] is [Array.mapi f a], chunked across domains. *)

val map_reduce :
  ?domains:int -> map:('a -> 'b) -> reduce:('b -> 'b -> 'b) -> init:'b -> 'a array -> 'b
(** [map_reduce ~map ~reduce ~init a] folds [reduce] left-to-right over
    [map a.(i)] in index order.  Each chunk folds its own elements;
    chunk partials are combined in chunk order starting from [init], so
    [reduce] must be associative with [init] as identity for the result
    to be independent of the domain count. *)

(** Fork-join domain batches for data-parallel kernels.

    The parallel hot paths are loops over independent index ranges:
    the signature sweep runs a cost-weighted plan with per-slot scratch
    ({!weighted_chunks}, {!run_plan_slotted}); campaign trials and
    volume dies map over an array ({!map_array}).  This module runs
    them across OCaml 5 domains (stdlib [Domain] + [Atomic] only, no
    external dependencies).

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
    writes are keyed on its chunk index, and mapped chunks are
    concatenated in index order on the calling domain.  Given a pure (or
    disjoint-write) body, results are identical for every domain count,
    including the sequential [domains <= 1] fallback — which runs the
    body inline and pays no spawn or synchronisation overhead.

    The effective domain count of a call is, in decreasing precedence:
    the [?domains] argument of {!map_array} / {!mapi_array}, the value
    given to {!set_domains}, the [MDD_DOMAINS] environment variable,
    then [Domain.recommended_domain_count ()] capped at 8.  That
    process width is the one knob of the kernels ([Session.simulate],
    [Tpg]'s PODEM windows): a chunk plan takes no width argument and
    reads it.

    Nesting rule: while a batch of width 2 or more drains, every
    participant — each spawned worker and the calling domain alike — is
    in-region, and a call made from inside a region runs inline at
    width 1 (no domain explosion, no deadlock).  So a die drained by a
    [Volume.run ~workers:N] batch runs its kernels inline whichever
    participant drains it, while a width-1 batch, which runs inline and
    is no region, leaves its body's kernels at the process width. *)

val default_domains : unit -> int
(** The domain count used when [?domains] is omitted; at least 1. *)

val set_domains : int -> unit
(** Override the process-wide default (clamped to [1 .. 64]).
    Used by the [--domains] CLI flag; takes precedence over
    [MDD_DOMAINS]. *)

val weighted_chunks :
  ?min_chunk_weight:int ->
  ?max_chunk_size:int ->
  weights:int array ->
  unit ->
  (int * int) array
(** A chunk plan over [0, Array.length weights) for
    {!run_plan_slotted}: chunk boundaries equalise the sum of per-index
    [weights] (weights below 1 count as 1) instead of the index count,
    and the range is oversplit into 4 chunks per domain so the shared
    cursor absorbs weight-estimate error.  Use when per-index cost
    varies widely (e.g. fault fanout-cone size in [Session.simulate]).
    The plan is computed {e before} the parallel region so callers can
    preallocate per-slot scratch (allocation inside a region triggers
    stop-the-world collections that stall every active domain — ruinous
    when domains outnumber cores).  Chunks are non-empty, contiguous,
    in index order, and cover [0, Array.length weights); a single chunk
    is returned when the effective width is 1 and no [max_chunk_size]
    is given.

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

val plan_slots : (int * int) array -> int
(** Number of drain slots {!run_plan_slotted} will use for the plan: 1
    when the plan runs inline, otherwise the caller plus one per
    spawned worker.  Callers preallocate one
    scratch structure per slot before entering the region. *)

val run_plan_slotted :
  (int * int) array -> (slot:int -> int -> int -> int -> unit) -> unit
(** [run_plan_slotted plan body] calls [body ~slot i lo hi] once per
    chunk of a {!weighted_chunks} plan, across at most the process
    width's domains (the caller is one of them; a 1-chunk plan runs
    entirely inline).  [slot] (in [0 .. plan_slots plan - 1]) is the drain slot
    of the participant running the chunk.  Chunk-to-slot assignment is
    dynamic and non-deterministic; a body may key {e scratch reuse} on
    the slot (heavy per-worker state such as the batched simulator's
    transposed delta slabs is allocated per slot, not per chunk) but
    must only write results disjoint per chunk, keyed on the chunk
    index [i], so the output never depends on the assignment.  Plan,
    slots and run read the process width when called, so make all
    three calls at one width. *)

val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array f a] is [Array.map f a], chunked across domains.  [f] is
    applied exactly once per element; the result preserves order. *)

val mapi_array : ?domains:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** [mapi_array f a] is [Array.mapi f a], chunked across domains. *)

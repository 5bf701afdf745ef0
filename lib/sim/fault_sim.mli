(** Event-driven bit-parallel single-stuck-at fault simulation.

    The inner loop of diagnosis: given the good-machine words of a
    pattern block, propagate the effect of one stuck line through its
    fanout cone only, and report which primary outputs differ on which
    patterns.  Amortised cost is proportional to the size of the
    affected region, not the circuit.

    The steady-state path is allocation-free: the per-level event
    frontiers, the touched stack and the delta words are preallocated
    flat arrays reset by cursor, gates evaluate straight out of the
    netlist's CSR views, and output scans visit only the POs reachable
    from the injection site (see {!Po_reach}). *)

type t
(** Reusable simulator (scratch buffers) bound to one netlist.  Not
    shareable across domains — give each worker its own. *)

val create : ?reach:Po_reach.t -> Netlist.t -> t
(** [?reach] shares a precomputed PO-reachability structure (it is
    immutable); when omitted one is computed, an O(edges) sweep. *)

val netlist : t -> Netlist.t

val reach : t -> Po_reach.t
(** The PO-reachability structure the simulator screens with. *)

type stats = {
  propagates : int;  (** Fault propagations actually run. *)
  screened : int;
      (** Injections screened away without simulating: zero delta on
          every live pattern, or no PO reachable from the site. *)
  gate_events : int;  (** Frontier entries drained across all levels. *)
}

val stats : t -> stats
(** Since creation or the last {!reset_stats}.  Maintained
    unconditionally (plain field adds at frontier granularity — cheap
    enough to never gate); deterministic for a given workload, so
    regression gates may compare them exactly.  Callers that publish
    them into the global registry do so through [Obs] counters after
    their batch. *)

val reset_stats : t -> unit

val publish_stats : t -> unit
(** Fold this simulator's stats into the global [Obs] counters
    ["sim.faults_simulated"], ["sim.faults_screened"] and
    ["sim.gate_events"] (when observability is on), then reset them.
    Owners call it once per batch, after their parallel region. *)

val po_diffs :
  t ->
  good:Logic_sim.net_values ->
  width:int ->
  site:Netlist.net ->
  stuck:bool ->
  (int * int) list
(** [po_diffs t ~good ~width ~site ~stuck]: simulate [site] stuck at
    [stuck] against the block whose good-machine words are [good] (live
    pattern bits [0 .. width-1]).  Returns [(po_position, diff_word)]
    for every PO whose masked diff word is non-zero, ascending. *)

val po_diffs_delta :
  t ->
  good:Logic_sim.net_values ->
  width:int ->
  site:Netlist.net ->
  delta:int ->
  (int * int) list
(** Generalisation of {!po_diffs}: inject an arbitrary per-pattern error
    word [delta] (bit [k] set = the site's value is flipped on pattern
    [k]) at [site] and propagate.  For a single injection the victim's
    delta under "victim follows net [a]" is just
    [good(victim) lxor good(a)]; the aggressor screens run that
    injection over every block at once through {!batch_po_diffs_delta},
    and bridge confirmation, which must see the rest of the multiplet
    and the bridge's feedback, pins held words in
    {!batch_multiplet_diffs}.  Kept as the single-block reference the
    kernel oracles check the batch entry points against. *)

val iter_po_diffs :
  t ->
  good:Logic_sim.net_values ->
  width:int ->
  site:Netlist.net ->
  stuck:bool ->
  (int -> int -> unit) ->
  unit
(** Allocation-free variant of {!po_diffs}: [f po_position diff_word]
    for every differing PO, ascending.  The hot-loop entry point of
    {!Explain.build_session}. *)

val iter_po_diffs_delta :
  t ->
  good:Logic_sim.net_values ->
  width:int ->
  site:Netlist.net ->
  delta:int ->
  (int -> int -> unit) ->
  unit
(** Allocation-free variant of {!po_diffs_delta}. *)

val detects :
  t ->
  good:Logic_sim.net_values ->
  width:int ->
  site:Netlist.net ->
  stuck:bool ->
  int
(** Word whose bit [k] is set iff the fault is detected (any PO differs)
    on pattern [k] of the block. *)

(** {1 PPSFP batch pass}

    Parallel-pattern, batched-fault simulation: where the scalar entry
    points above walk a fault's fanout cone once per pattern block, a
    {!batch} carries one delta word {e per block} through a single
    levelized sweep — the frontier, queued flags and level buckets are
    paid once per gate event instead of once per (gate event, block).
    Good and delta words live in transposed net-major slabs so the
    per-gate block loop is a contiguous scan.

    The pass is exact: for every entry point below the masked PO diff
    words are bit-identical to the corresponding scalar sweep (and, for
    multi-site pins, to [Logic_sim.simulate_block_overlay] under the
    equivalent overrides), so signature-cache entries and paper tables
    are byte-compatible whichever path produced them. *)

type batch
(** Batch scratch bound to one simulator and one block group (the
    good-machine words of every block of a pattern set).  Like {!t},
    not shareable across domains — give each worker its own.  Scalar
    calls on the underlying {!t} may interleave with batch sweeps. *)

val prepare_batch :
  ?share:batch ->
  t ->
  blocks:Pattern.block array ->
  goods:Logic_sim.net_values array ->
  batch
(** Build batch scratch for [blocks] (with [goods] their good-machine
    words, same order).  [?share] reuses the read-only transposed
    good-value slab of an existing batch over the same netlist and
    block count — workers share it, each owning only its private delta
    slab. *)

val batch_sim : batch -> t
val num_blocks : batch -> int

val batch_po_diffs :
  batch -> site:Netlist.net -> stuck:bool -> (int -> int -> int -> unit) -> unit
(** Simulate one stuck-at fault against {e every} block in one sweep:
    [f bi oi w] for every non-zero masked diff word, blocks ascending,
    then the site's reachable POs in CSR order — exactly the triple
    order of the per-block scalar sweep, hence of [Sig_cache] entries.
    Screens (all-blocks-inactive, no reachable PO) count once per
    fault, not once per (fault, block). *)

val batch_po_diffs_delta :
  batch -> site:Netlist.net -> deltas:int array -> (int -> int -> int -> unit) -> unit
(** Generalisation injecting an arbitrary error word per block
    ([deltas], indexed by block, masked internally) — the multi-block
    form of {!iter_po_diffs_delta}, used by the aggressor screens. *)

val batch_multiplet_diffs :
  ?held:(Netlist.net * int array) list ->
  batch ->
  faults:(Netlist.net * bool) list ->
  (int -> int -> int -> unit) ->
  unit
(** Multi-site sweep for multiplet scoring ([faults] lists
    (site, stuck) pairs; this layer does not know [Fault_list]): every
    site is pinned — held at its stuck word for a single polarity,
    flipped ([lnot computed]) when both polarities are present — and
    the joint faulty machine is propagated once.  [?held] adds sites
    held at arbitrary per-block words (indexed by block; the dead high
    bits are ignored; sites distinct): a held site is never
    re-evaluated and replaces any [faults] pin on the same net, as the
    overlay simulator's last write wins.  [f bi oi w] for every
    non-zero masked PO diff, blocks ascending then PO positions
    ascending (all POs, not just reachable ones).  Bit-identical to
    [Logic_sim.simulate_block_overlay] under the equivalent overrides
    ([Scoring.overlay_of_multiplet] plus constant-word forces), which
    holds because pinned sites read no other nets and the netlist is
    feedback-free, so one levelized pass is the fixpoint.  After the
    call, {!batch_value} and {!batch_driven} read the swept machine. *)

val batch_value : batch -> net:Netlist.net -> block:int -> int
(** The resolved word of [net] in block [block] after the last sweep on
    this batch (good XOR delta; bits above the block width are
    unspecified).  Valid until the next sweep. *)

val batch_driven : batch -> net:Netlist.net -> block:int -> int
(** What [net]'s own driver outputs in the last sweep: its gate
    evaluated over the fanins' {!batch_value} words, ignoring any pin on
    [net] itself — the overlay simulator's [driven_of].  Inputs and
    constants return their good-machine word. *)

val simulate_batch :
  batch ->
  n:int ->
  fault:(int -> Netlist.net * bool) ->
  (int -> int -> int -> int -> unit) ->
  unit
(** Simulate a slice of [n] faults ([fault i] gives the [i]th as a
    (site, stuck) pair) against the batch's whole block group:
    [f i bi oi w] with the triples of each fault in {!batch_po_diffs}
    order, faults in slice order.  Counts one batch of [n] faults
    towards {!publish_batch_stats}. *)

val publish_batch_stats : batch -> unit
(** Fold this batch's tile counts into the global [Obs] counter
    ["sim.batches"] and the ["sim.faults_per_batch"] distribution (when
    observability is on), then reset them.  Owners call it once per
    build, after their parallel region; gate-event and screen totals
    flow through the underlying simulator's {!publish_stats} as
    before. *)

val signature :
  t ->
  ?goods:Logic_sim.net_values array ->
  Pattern.t ->
  site:Netlist.net ->
  stuck:bool ->
  Bitvec.t array
(** Full-set fault signature: per PO position, a bit per pattern set iff
    that PO differs from the good machine.  [?goods] supplies the
    good-machine words of every block (in [Pattern.blocks] order) so
    repeated calls against one test set stop paying good-machine
    resimulation; when omitted each block is simulated on the fly. *)

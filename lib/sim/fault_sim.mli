(** PPSFP fault simulation: parallel-pattern, batched-fault.

    The one fault simulator of the engine.  Diagnosis fills its
    signature cache and scores every hypothesis with it, and test
    generation drops detected faults with it.  A simulator is bound to
    the good-machine words of a block group (every block of a pattern
    set); it propagates an injected difference through the fanout cone
    only, carrying one delta word {e per block} through a single
    levelized sweep, so the frontier, queued flags and level buckets
    are paid once per gate event instead of once per (gate event,
    block).  Amortised cost is proportional to the size of the affected
    region, not the circuit.  Good and delta words live in transposed
    net-major slabs, so the per-gate block loop is a contiguous scan.

    The steady-state path is allocation-free: the per-level event
    frontiers, the touched stack and the delta slab are preallocated
    flat arrays reset by cursor, gates evaluate straight out of the
    netlist's CSR views, and single-site output scans visit only the
    POs reachable from the injection site (see {!Po_reach}).

    The sweeps are exact: their masked PO diff words are bit-identical
    to a whole-block overlay resimulation ([Logic_sim.simulate_block_overlay])
    under the equivalent overrides, which the test suite's kernel
    oracles check against a per-block scalar reference. *)

type t
(** Simulator scratch bound to one netlist and one block group.  Not
    shareable across domains — give each worker its own. *)

val create :
  ?share:t ->
  ?reach:Po_reach.t ->
  Netlist.t ->
  blocks:Pattern.block array ->
  goods:Logic_sim.net_values array ->
  t
(** [create net ~blocks ~goods]: a simulator for [blocks], with [goods]
    their good-machine words in the same order; it transposes [goods]
    into its own slab.  [?share] instead reads the transposed good slab
    of an existing simulator over the same netlist and block count —
    workers share it, each owning only its private delta slab; a lender
    that is never swept itself may be read from several domains.
    [?reach] shares a precomputed PO-reachability structure (it is
    immutable); when omitted one is computed, an O(edges) sweep.
    Raises [Invalid_argument] on an empty block set, on [goods] of the
    wrong length, or on an incompatible [?share]. *)

val rebind : t -> blocks:Pattern.block array -> goods:Logic_sim.net_values array -> unit
(** Rewrite the simulator's good words (and live widths) in place for a
    new block group of the same block count: a caller that simulates
    one short pattern block after another keeps one simulator.  Raises
    [Invalid_argument] when the good slab is shared (the simulator was
    made with [?share] or lent to one) or the simulator holds a frame
    (it ran a {!batch_base_diffs}), and on a block count mismatch. *)

val publish_stats : t -> unit
(** Fold this simulator's stats — sweeps run, injections screened away
    (zero delta on every live pattern, or no PO reachable from the site)
    and frontier entries drained, {!simulate_batch} calls and their
    fault counts — into the global [Obs] counters
    ["sim.faults_simulated"], ["sim.faults_screened"],
    ["sim.gate_events"], ["sim.batches"] and the
    ["sim.faults_per_batch"] distribution (when observability is on),
    then reset them.  The stats are maintained unconditionally (plain
    field adds at frontier granularity) and are deterministic for a
    given workload, so regression gates may compare them exactly.
    Owners call it after their parallel region. *)

val batch_po_diffs_delta :
  t -> site:Netlist.net -> deltas:int array -> (int -> int -> int -> unit) -> unit
(** Inject an arbitrary error word per block ([deltas], indexed by
    block, masked internally; bit [k] set = the site's value is flipped
    on pattern [k]) at [site] and propagate it through {e every} block
    in one sweep — used with the all-ones delta by the aggressor screens
    (one sweep per victim) and, with the stuck word's delta, by
    {!simulate_batch}.  Lanes are independent, so the diff words under
    any delta are the delta masked onto the diff words of the all-ones
    delta.  [f bi oi w] for every non-zero masked diff word, blocks
    ascending, then the site's reachable POs in CSR order — the triple
    order of [Sig_cache] entries.  Screens (all-blocks-inactive, no
    reachable PO) count once per injection. *)

val batch_multiplet_diffs :
  t -> faults:(Netlist.net * bool) list -> (int -> int -> int -> unit) -> unit
(** Multi-site sweep for multiplet scoring ([faults] lists
    (site, stuck) pairs; this layer does not know [Fault_list]): every
    site is pinned — held at its stuck word for a single polarity,
    flipped ([lnot computed]) when both polarities are present — and
    the joint faulty machine is propagated once from the good machine.
    [f bi oi w] for every non-zero masked PO diff, blocks ascending
    then PO positions ascending (all POs, not just reachable ones).
    Bit-identical to [Logic_sim.simulate_block_overlay] under
    [Scoring.overlay_of_multiplet], which holds because pinned sites
    read no other nets and the netlist is feedback-free, so one
    levelized pass is the fixpoint.  After the call, {!batch_value}
    and {!batch_driven} read the swept machine. *)

(** {2 Base frames and one-change sweeps}

    Hypothesis scoring sweeps many multiplets that differ from one
    already swept at a site or two.  A {e base sweep} keeps its faulty
    machine — the resolved word of every net and every pin — as the
    simulator's frame; a {e change sweep} then re-pins a few sites and
    propagates only what differs from the frame.  The frame's words
    live in a second net-major slab, allocated by the first base sweep;
    a rebase rewrites only the rows the old and the new base touched. *)

type repin =
  | Free  (** Unpinned: the site's own gate drives it again. *)
  | Stuck of bool  (** Held at the stuck word. *)
  | Flip  (** [lnot computed], the both-polarities pin. *)
  | Held of int array  (** Held at a word per block (dead bits ignored). *)
(** A site's pin in a change sweep, replacing its base pin. *)

val batch_base_diffs :
  t -> faults:(Netlist.net * bool) list -> (int -> int -> int -> unit) -> unit
(** {!batch_multiplet_diffs}, whose swept machine then becomes the
    simulator's frame: [f] sees the base's own masked PO diffs against the
    good machine.  Any ordinary sweep on the simulator
    ({!batch_multiplet_diffs}, {!batch_po_diffs_delta},
    {!simulate_batch}) ends the frame. *)

val batch_change_diffs :
  t -> (Netlist.net * repin) list -> (int -> int -> int -> unit) -> unit
(** [batch_change_diffs b changes f] sweeps the frame's machine with
    each listed site (sites distinct) re-pinned: every other base pin
    stays in force, a held or stuck site is seeded with its word XOR
    the frame's, a freed or flipped gate is re-evaluated from its
    fanins' frame words, and the change propagates through the changed
    sites' fanout cones only.  [f bi oi c] for every non-zero masked
    change word [c] at a PO, in no particular order: the PO's diff
    against the good machine is the base sweep's diff XOR [c].  Equal,
    bit for bit, to {!batch_multiplet_diffs} of the re-pinned multiplet
    (DESIGN.md §10).  {!batch_value} and {!batch_driven} read the
    changed machine afterwards.  Raises [Invalid_argument] when no
    frame is in force. *)

val batch_value : t -> net:Netlist.net -> block:int -> int
(** The resolved word of [net] in block [block] after the last sweep on
    this simulator (bits above the block width are unspecified).  Valid
    until the next sweep. *)

val batch_driven : t -> net:Netlist.net -> block:int -> int
(** What [net]'s own driver outputs in the last sweep: its gate
    evaluated over the fanins' {!batch_value} words, ignoring any pin on
    [net] itself — the overlay simulator's [driven_of].  Inputs and
    constants return their good-machine word. *)

val simulate_batch :
  t ->
  n:int ->
  fault:(int -> Netlist.net * bool) ->
  (int -> int -> int -> int -> unit) ->
  unit
(** Simulate a slice of [n] faults ([fault i] gives the [i]th as a
    (site, stuck) pair) against the simulator's whole block group:
    [f i bi oi w] with the triples of each fault in
    {!batch_po_diffs_delta} order, faults in slice order.  Counts one
    batch of [n] faults towards {!publish_stats}. *)

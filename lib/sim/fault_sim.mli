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
    region, not the circuit.  Good words (one immutable {!good} that
    any number of simulators read) and each simulator's delta words are
    transposed net-major, so the per-gate block loop is a contiguous
    scan.

    The steady-state path is allocation-free: the per-level event
    frontiers, the touched stack and the delta slab are preallocated
    flat arrays reset by cursor, gates evaluate straight out of the
    netlist's CSR views, and a single fault's output scan visits only
    the POs reachable from its site (see {!Po_reach}).

    Two kinds of sweep run through one drain: {!simulate_batch} injects
    single stuck faults for the signature cache and test generation, and
    {!sweep} re-pins sites against the frame {!hold} left — the good
    machine when none is held — for hypothesis scoring.  The sweeps are
    exact: their masked PO diff words are bit-identical to a whole-block
    overlay resimulation ([Logic_sim.simulate_block_overlay]) under the
    matching overrides, which the test suite's kernel oracles check
    against a per-block scalar reference. *)

type good = private {
  nb : int;  (** Number of pattern blocks. *)
  words : int array;
      (** [words.(net * nb + bi)]: the good-machine word of [net] in
          block [bi], net-major, so one net's blocks are contiguous.
          Bits above a block's width are what the gates compute from
          zero PI bits. *)
  masks : int array;  (** Per block: its live-width mask. *)
}
(** The good machine of one block group.  Immutable by contract: built
    once by {!good}, read by every simulator bound to it and by the
    screens that test good values in place, written by none — so one
    value serves any number of simulators on any number of domains. *)

val good : Netlist.t -> Pattern.block array -> good
(** Simulate every block ([Logic_sim.simulate_block]) and transpose the
    words once into {!good}'s net-major layout. *)

type t
(** Simulator scratch bound to one netlist and one good machine.  Owned
    by one domain at a time — give each worker its own; they may all
    read one {!good}. *)

val create : ?reach:Po_reach.t -> Netlist.t -> good -> t
(** [create net good]: a simulator over [good]'s blocks, reading its
    words in place and owning only its delta slab and scratch.
    [?reach] reuses a precomputed PO-reachability structure (it is
    immutable); when omitted one is computed, an O(edges) sweep.
    Raises [Invalid_argument] on an empty block set, or when [good] was
    built for a netlist of another size. *)

val rebind : t -> good -> unit
(** Point the simulator at another good machine of the same block
    count, without copying: a caller that simulates one short pattern
    block after another keeps one simulator.  Raises [Invalid_argument]
    when the simulator has a frame (it ran a {!hold} of some pin), on a
    block count mismatch, or when [good] was built for a netlist of
    another size. *)

val publish_stats : t -> unit
(** Fold this simulator's stats — sweeps run (a {!hold} or {!sweep}
    that pins nothing runs none), {!simulate_batch} faults screened away
    (zero delta on every live pattern, or no PO reachable from the site)
    and frontier entries drained, {!simulate_batch} calls and their
    fault counts — into the [Obs] counters
    ["sim.faults_simulated"], ["sim.faults_screened"],
    ["sim.gate_events"], ["sim.batches"] and the
    ["sim.faults_per_batch"] distribution of the bound sink, if any,
    then reset them.  The stats are maintained unconditionally (plain
    field adds at frontier granularity) and are deterministic for a
    given workload, so regression gates may compare them exactly.
    Owners call it after their parallel region. *)

(** {2 Frames and change sweeps}

    Hypothesis scoring sweeps many multiplets that differ from one
    already swept at a site or two.  {!hold} keeps one sweep's faulty
    machine — the resolved word of every net and every pin — as the
    simulator's {e frame}; {!sweep} then re-pins a few sites and
    propagates only what differs from the frame.  The good machine is
    the empty frame.  The frame's words live in a second net-major
    slab, allocated by the first hold of some pin; a new hold rewrites
    only the rows the old and the new frame touched. *)

type repin =
  | Free  (** Unpinned: the site's own gate drives it again. *)
  | Stuck of bool  (** Held at the stuck word. *)
  | Flip  (** [lnot computed]: the site's own gate, inverted. *)
  | Held of int array  (** Held at a word per block (dead bits ignored). *)
(** A site's pin in a sweep, replacing its frame pin. *)

val hold : t -> (Netlist.net * repin) list -> (int -> int -> int -> unit) -> unit
(** [hold b pins f] sweeps [pins] (sites distinct) from the good machine,
    as {!sweep} on the empty frame does, and keeps the swept machine as
    the frame, replacing any earlier one: [f bi oi w] for every non-zero
    masked PO diff word against the good machine, in no particular
    order.  Pinned sites read no other nets and the netlist is
    feedback-free, so one levelized pass is the overlay simulator's
    fixpoint.  An empty [pins] list empties the frame and sweeps
    nothing.  Afterwards {!batch_value} and {!batch_driven} read the
    frame's machine. *)

val sweep : t -> (Netlist.net * repin) list -> (int -> int -> int -> unit) -> unit
(** [sweep b changes f] sweeps the frame's machine with each listed
    site (sites distinct) re-pinned: every other frame pin stays in
    force, a held or stuck site is seeded with its word XOR the frame's,
    a freed or flipped gate is re-evaluated from its fanins' frame
    words, and the change propagates through the changed sites' fanout
    cones only.  [f bi oi c] for every non-zero masked change word [c]
    at a PO, in no particular order: the PO's diff against the good
    machine is the frame's diff XOR [c].  Equal, bit for bit, to a
    {!hold} of the re-pinned multiplet (DESIGN.md §10).  {!batch_value}
    and {!batch_driven} read the changed machine afterwards; an empty
    [changes] list sweeps nothing, and they read the frame's. *)

val batch_value : t -> net:Netlist.net -> block:int -> int
(** The resolved word of [net] in block [block] after the last sweep on
    this simulator (bits above the block width are unspecified).  Valid
    until the next sweep. *)

val batch_driven : t -> net:Netlist.net -> int array
(** What [net]'s own driver outputs in the last sweep, one fresh word
    per block: its gate evaluated over the fanins' {!batch_value}
    words, by the kernel's own slab evaluator, ignoring any pin on
    [net] itself — the overlay simulator's [driven_of].  Inputs and
    constants return their good-machine words. *)

val simulate_batch :
  t ->
  n:int ->
  fault:(int -> Netlist.net * bool) ->
  (int -> int -> int -> int -> unit) ->
  unit
(** Simulate a slice of [n] faults ([fault i] gives the [i]th as a
    (site, stuck) pair) against the simulator's whole block group, each
    one injected alone into the good machine: [f i bi oi w] for every
    non-zero masked PO diff word of fault [i], blocks ascending, then
    the site's reachable POs ascending — the triple order of [Sig_cache]
    entries — faults in slice order.  Empties the frame.  A fault that
    changes no live pattern, or whose site reaches no PO, is screened:
    it propagates nothing.  Counts one batch of [n] faults towards
    {!publish_stats}. *)

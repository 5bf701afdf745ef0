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

val publish_stats : t -> unit
(** Fold this simulator's stats — fault propagations run, injections
    screened away (zero delta on every live pattern, or no PO reachable
    from the site) and frontier entries drained — into the global [Obs]
    counters ["sim.faults_simulated"], ["sim.faults_screened"] and
    ["sim.gate_events"] (when observability is on), then reset them.
    The stats are maintained unconditionally (plain field adds at
    frontier granularity) and are deterministic for a given workload,
    so regression gates may compare them exactly.  Owners call it once
    per batch, after their parallel region. *)

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
    the scalar signature paths. *)

val iter_po_diffs_delta :
  t ->
  good:Logic_sim.net_values ->
  width:int ->
  site:Netlist.net ->
  delta:int ->
  (int -> int -> unit) ->
  unit
(** Generalisation of {!iter_po_diffs}: inject an arbitrary
    per-pattern error word [delta] (bit [k] set = the site's value is
    flipped on pattern [k]) at [site] and propagate.  For a single
    injection the victim's delta under "victim follows net [a]" is just
    [good(victim) lxor good(a)].  Lanes are independent, so the diff
    words under any delta are the delta masked onto the diff words of
    the all-ones delta: the aggressor screens run that one flip
    injection per victim, over every block at once, through
    {!batch_po_diffs_delta} and mask it per aggressor.  Bridge
    confirmation, which must see the rest of the multiplet and the
    bridge's feedback, holds words in {!batch_change_diffs} on top of
    a base sweep of the rest.
    The single-block reference the kernel oracles check
    {!batch_po_diffs_delta} against. *)

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

val batch_po_diffs_delta :
  batch -> site:Netlist.net -> deltas:int array -> (int -> int -> int -> unit) -> unit
(** Inject an arbitrary error word per block ([deltas], indexed by
    block, masked internally) at [site] and propagate it through
    {e every} block in one sweep — the multi-block form of
    {!iter_po_diffs_delta}, used with the all-ones delta by the
    aggressor screens (one sweep per victim) and, with the stuck word's
    delta, by {!simulate_batch}.  [f bi oi w] for every
    non-zero masked diff word, blocks ascending, then the site's
    reachable POs in CSR order — exactly the triple order of the
    per-block scalar sweep, hence of [Sig_cache] entries.  Screens
    (all-blocks-inactive, no reachable PO) count once per injection,
    not once per (injection, block). *)

val batch_multiplet_diffs :
  batch -> faults:(Netlist.net * bool) list -> (int -> int -> int -> unit) -> unit
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
    batch's frame; a {e change sweep} then re-pins a few sites and
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
  batch -> faults:(Netlist.net * bool) list -> (int -> int -> int -> unit) -> unit
(** {!batch_multiplet_diffs}, whose swept machine then becomes the
    batch's frame: [f] sees the base's own masked PO diffs against the
    good machine.  Any ordinary sweep on the batch
    ({!batch_multiplet_diffs}, {!batch_po_diffs_delta},
    {!simulate_batch}) ends the frame. *)

val batch_change_diffs :
  batch -> (Netlist.net * repin) list -> (int -> int -> int -> unit) -> unit
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

val batch_value : batch -> net:Netlist.net -> block:int -> int
(** The resolved word of [net] in block [block] after the last sweep on
    this batch (bits above the block width are unspecified).  Valid
    until the next sweep. *)

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
    [f i bi oi w] with the triples of each fault in
    {!batch_po_diffs_delta} order, faults in slice order.  Counts one
    batch of [n] faults towards {!publish_batch_stats}. *)

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

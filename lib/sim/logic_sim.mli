(** Bit-parallel good-machine simulation and the overlay simulator.

    The engine's one fault simulator is [Fault_sim], which reads the
    good words {!simulate_block} computes.  The overlay simulator here
    serves defect injection — a chip's observed responses under its
    defects — and the test suite's oracles, which check [Fault_sim]
    against a whole-block resimulation.  A defect expresses itself as
    per-net overrides of the combinational evaluation.  Overrides may
    reference the value of any other net (e.g. a bridge aggressor), so
    evaluation iterates to a fixpoint; feedback bridges that oscillate
    are cut off after a bounded number of sweeps (the last sweep's value
    wins, mirroring a tester sampling a metastable line). *)

type net_values = int array
(** One word per net: bit [k] = value under pattern [base + k] of the
    simulated block. *)

val simulate_block : Netlist.t -> Pattern.block -> net_values
(** Good-machine simulation of one pattern block. *)

(** {1 Overlay (faulty) simulation} *)

type override = {
  target : Netlist.net;
  behave :
    computed:int ->
    value_of:(Netlist.net -> int) ->
    driven_of:(Netlist.net -> int) ->
    base:int ->
    int;
      (** [computed] is the word the gate logic produced for [target];
          [value_of] reads the {e resolved} word of any net (after that
          net's own override, i.e. what the wire carries); [driven_of]
          reads the {e driven} word (what the net's gate outputs, before
          overrides) — wired bridges must combine driven values or the
          two sides would feed back on each other; [base] is the block's
          first pattern index (for pattern-indexed behaviours).  Returns
          the word that [target] actually takes. *)
}

val force : Netlist.net -> bool -> override
(** Stuck-at override. *)

val max_sweeps : int
(** Fixpoint bound for feedback-creating overlays. *)

val simulate_block_overlay :
  Netlist.t -> Pattern.block -> override list -> net_values
(** Faulty simulation of one block under the overrides.  With an empty
    list this equals {!simulate_block}.  Test-only: the oracle that
    [Reference]'s overlay scorer and [test_fault_sim] check the PPSFP
    kernels against. *)

(** {1 Responses} *)

type responses = Bitvec.t array
(** Indexed by PO position; bit [p] = value of that PO under pattern
    [p]. *)

val responses : Netlist.t -> Pattern.t -> responses
(** Good-machine output responses over a whole set. *)

val responses_overlay : Netlist.t -> Pattern.t -> override list -> responses

val diff_outputs : responses -> responses -> (int * int list) list
(** [diff_outputs expected observed] lists, for every pattern with at
    least one mismatching output, the pattern index and the mismatching
    PO positions (both ascending). *)

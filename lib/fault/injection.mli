(** Random defect injection — the campaign's ground-truth generator.

    Draws defect mixes, compiles them to a faulty machine (overlay
    simulation) and produces the observed responses a tester would log.
    Structural care is taken so that injected behaviour stays
    combinational: bridge aggressors and open conditions are never chosen
    inside the fanout cone of their victim (real feedback bridges exist
    but would make ground truth ill-defined for scoring). *)

type kind_mix = {
  stuck : int;
  bridge : int;
  open_ : int;
  intermittent : int;
}
(** Relative weights for drawing defect kinds. *)

val default_mix : kind_mix
(** 30% stuck / 30% bridge / 25% open / 15% intermittent — the mix the
    experiments use (mirrors the share reported in silicon studies of
    defective parts: a large fraction of real defects is not stuck-at). *)

val mix_of_string : string -> kind_mix option
(** ["stuck"], ["bridge"], ["open"], ["intermittent"], ["mixed"]. *)

val random_defect :
  ?layout:Layout.t * float -> Rng.t -> Netlist.t -> kind_mix -> Defect.t
(** Draw one defect.  Sites are uniform over non-PI nets (PIs model scan
    cells and are excluded as defect sites so that every defect is inside
    the logic).  With [?layout = (placement, radius)], bridge aggressors
    and open-defect condition nets are drawn only from the site's
    physical neighbourhood — shorts happen between adjacent wires. *)

val capacity : Netlist.t -> int
(** Number of eligible defect sites (non-PI nets) — an upper bound on
    the placeable multiplicity.  Campaigns skip (circuit, multiplicity)
    cells with [k + 2 > capacity] to keep placement well-conditioned. *)

val random_defects :
  ?layout:Layout.t * float -> Rng.t -> Netlist.t -> kind_mix -> int -> Defect.t list
(** [random_defects rng t mix k]: [k] defects whose overridden nets are
    pairwise disjoint.  Raises [Invalid_argument] when the circuit
    cannot host them (see {!capacity}). *)

val observed_responses :
  Netlist.t -> Pattern.t -> Defect.t list -> Logic_sim.responses
(** Simulate the faulty machine over the whole test set. *)

val contributing :
  Netlist.t -> Pattern.t -> Defect.t list -> Defect.t list
(** The defects that actually shape the observed responses: [d] is
    contributing iff removing it from the overlay changes some output on
    some pattern.  Fully masked defects are invisible to any tester and
    are excluded from diagnosability denominators (a diagnosis cannot be
    blamed for not finding what left no trace). *)

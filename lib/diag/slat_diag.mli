(** Baseline 2: SLAT-based multiplet diagnosis.

    The state-of-practice multiple-defect approach the paper improves on
    (in the spirit of Bartenstein's SLAT and Lavo's multiplet scoring):
    keep only failing patterns whose whole response one stuck line
    explains exactly, then assemble a minimal multiplet that covers every
    such pattern.  Non-SLAT failing patterns — precisely the ones defect
    interaction produces — are silently discarded, which is the
    assumption under test. *)

type result = {
  multiplet : Fault_list.fault list;
  covered_patterns : int list;  (** SLAT patterns the multiplet explains. *)
  ignored_patterns : int list;  (** Non-SLAT failing patterns dropped. *)
  score : Scoring.score;  (** Simultaneous simulation, for comparability. *)
}

val diagnose : Explain.t -> result
(** Runs on a prebuilt explanation matrix (shared with {!Noassume} in the
    campaigns), scoring against the matrix's session's test set. *)

val callout_nets : result -> Netlist.net list

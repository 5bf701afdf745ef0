(** Baseline 2: SLAT-based multiplet diagnosis.

    A failing pattern has the SLAT property (Single Location At a Time,
    Bartenstein et al. ITC 2001) when at least one single stuck line
    reproduces its observed response {e exactly}.  The state-of-practice
    multiple-defect approach the paper improves on (in the spirit of
    Bartenstein's SLAT and Lavo's multiplet scoring) keeps only such
    patterns, then assembles a minimal multiplet that covers every one
    of them.  Non-SLAT failing patterns — precisely the ones defect
    interaction produces — are silently discarded, which is the
    assumption under test; the fraction that is not SLAT is the
    information those tools throw away, the motivating measurement of
    the paper (Table 2). *)

type classification = {
  slat : int list;  (** Failing patterns with >= 1 exact explainer. *)
  non_slat : int list;  (** Failing patterns no single stuck line explains. *)
}

val classify : Explain.t -> classification
(** The SLAT split of the matrix's failing patterns, ascending, without
    diagnosing: what {!diagnose} reports as [classification]. *)

val slat_fraction : classification -> float
(** [|slat| / (|slat| + |non_slat|)]; 1.0 when there are no failing
    patterns. *)

type result = {
  classification : classification;
      (** The SLAT split; [non_slat] are the patterns the baseline
          ignores. *)
  multiplet : Fault_list.fault list;
  covered_patterns : int list;  (** SLAT patterns the multiplet explains. *)
  score : Scoring.score;  (** Simultaneous simulation, for comparability. *)
}

val diagnose : Explain.t -> result
(** Runs on a prebuilt explanation matrix (shared with {!Noassume} in the
    campaigns), scoring against the matrix's session's test set.  One
    pass over the matrix builds every candidate's exact-pattern set, and
    the classification follows from their union. *)

val callout_nets : result -> Netlist.net list

(** SLAT classification of failing patterns.

    A failing pattern has the SLAT property (Single Location At a Time,
    Bartenstein et al. ITC 2001) when at least one single stuck line
    reproduces its observed response {e exactly}.  SLAT-based multiple-
    defect diagnosis keeps only such patterns; the fraction that is not
    SLAT is precisely the information those tools throw away — the
    motivating measurement of the paper (Table 2). *)

type t = {
  slat : int list;  (** Failing patterns with >= 1 exact explainer. *)
  non_slat : int list;  (** Failing patterns no single stuck line explains. *)
}

val classify : Explain.t -> t

val slat_fraction : t -> float
(** [|slat| / (|slat| + |non_slat|)]; 1.0 when there are no failing
    patterns. *)

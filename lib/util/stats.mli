(** Small descriptive-statistics helpers used by the campaign harness. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val histogram : bins:int -> lo:float -> hi:float -> float list -> int array
(** [histogram ~bins ~lo ~hi xs] counts values into [bins] equal-width
    bins over [lo, hi]; out-of-range values clamp to the end bins. *)

val ratio : int -> int -> float
(** [ratio num den] = [num/den] as a float, 0 when [den = 0]. *)

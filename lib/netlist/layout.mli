(** Synthetic physical placement.

    Bridge defects are shorts between {e physically adjacent} wires, and
    industrial diagnosis flows exploit extracted layout proximity to
    restrict aggressor candidates.  Real layouts are not available here,
    so this module synthesizes a plausible placement: gates are placed in
    columns by logic level and rows by their order within the level —
    the standard row-based standard-cell picture — giving a deterministic
    coordinate for every net (its driver's location).

    Used twice: the injection campaign draws bridges only between close
    nets (realistic ground truth), and the diagnosis engine can restrict
    aggressor inference to the victim's neighbourhood (the
    layout-awareness ablation). *)

type t

val synthesize : Netlist.t -> t
(** Deterministic placement of every net. *)

val distance : t -> Netlist.net -> Netlist.net -> float
(** Euclidean distance between the two nets' drivers. *)

val neighbors : t -> radius:float -> Netlist.net -> Netlist.net list
(** Nets within [radius], excluding the net itself, ascending by
    distance. *)

val default_radius : float
(** Neighbourhood radius used by the campaigns: a few cell pitches
    (2.5). *)

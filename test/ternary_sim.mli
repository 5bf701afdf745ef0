(** Three-valued (0/1/X) simulation.

    A test-only reference: {!Podem_oracle} implies its decisions with it
    (the implication {!Podem} replaced by an incremental dual-rail
    engine), and {!x_reach} shows the X-path over-approximation —
    forcing X on a candidate site and checking which outputs turn X
    bounds where that site could possibly propagate. *)

val simulate : Netlist.t -> Scalar_logic.v3 array -> Scalar_logic.v3 array
(** [simulate t pi_values] evaluates the circuit with the given PI
    assignment (indexed by PI position, X allowed); returns per-net
    values. *)

val simulate_forced :
  Netlist.t ->
  Scalar_logic.v3 array ->
  (Netlist.net * Scalar_logic.v3) list ->
  Scalar_logic.v3 array
(** Like {!simulate} but the listed nets take the forced value instead of
    their computed one. *)

val x_reach : Netlist.t -> bool array -> Netlist.net -> int list
(** [x_reach t pattern site]: PO positions whose value becomes X when
    [site] is forced to X under the fully specified [pattern] (a PI
    vector).  These are the outputs the site can possibly corrupt on this
    pattern; the true error-propagation set is a subset. *)

(** Per-net primary-output reachability.

    For every net, the set of PO positions structurally reachable
    through its fanout cone, as a bitmask over PO positions, and its
    size.  The fault simulator uses it to scan only the outputs an
    injection site can possibly disturb, instead of every PO per
    candidate and block; [Session.simulate] additionally uses the
    reachable counts as chunk weights for load balancing.

    The structure is immutable after {!compute} and safe to share
    read-only across domains. *)

type t

val compute : Netlist.t -> t
(** One reverse-topological sweep: O(edges * ceil(num_pos/63)).  Not
    memoised: a session computes it once and hands it to every
    simulator it creates. *)

val num_reachable : t -> Netlist.net -> int
(** Number of POs reachable from the net (including the net itself when
    it is observed). *)

val reachable_into : t -> Netlist.net -> int array -> int
(** [reachable_into t net dst] writes the PO positions reachable from
    [net], ascending, into [dst] from index 0 and returns their number
    ({!num_reachable}).  [dst] needs room for every PO.  Allocates
    nothing. *)

(** Per-net primary-output reachability.

    For every net, the set of PO positions structurally reachable
    through its fanout cone — as a packed bitset (for membership tests)
    and as a CSR index list in ascending PO order (for iteration).  The
    fault simulator uses it to scan only the outputs an injection site
    can possibly disturb, instead of every PO per candidate and block;
    {!Explain.build_session} additionally uses the reachable counts as chunk
    weights for load balancing.

    The structure is immutable after {!compute} and safe to share
    read-only across domains. *)

type t

val compute : Netlist.t -> t
(** One reverse-topological sweep: O(edges * ceil(num_pos/63)). *)

val num_reachable : t -> Netlist.net -> int
(** Number of POs reachable from the net (including the net itself when
    it is observed). *)

val mem : t -> Netlist.net -> int -> bool
(** [mem t n oi]: is PO position [oi] reachable from net [n]? *)

val iter_reachable : t -> Netlist.net -> (int -> unit) -> unit
(** Apply to each reachable PO position, ascending. *)

val offsets : t -> int array
(** CSR offsets (length [num_nets + 1]) into {!reachable_csr}; exposed
    for allocation-free kernel loops.  Do not mutate. *)

val reachable_csr : t -> int array
(** Concatenated reachable-PO positions, ascending within each net. *)

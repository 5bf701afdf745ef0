(** Per-net primary-output reachability.

    For every net, the set of PO positions structurally reachable
    through its fanout cone, as a CSR index list in ascending PO order.
    The
    fault simulator uses it to scan only the outputs an injection site
    can possibly disturb, instead of every PO per candidate and block;
    [Session.simulate] additionally uses the reachable counts as chunk
    weights for load balancing.

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

val offsets : t -> int array
(** CSR offsets (length [num_nets + 1]) into {!reachable_csr}; exposed
    for allocation-free kernel loops.  Do not mutate. *)

val reachable_csr : t -> (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Concatenated reachable-PO positions, ascending within each net, as
    32-bit entries (half the resident size of an [int array]). *)

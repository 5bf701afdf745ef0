(** The stuck-at fault universe and structural equivalence collapsing.

    Diagnosis and ATPG both iterate over the set of net-level stuck-at
    faults.  Collapsing merges faults that no test can distinguish
    structurally — e.g. for an AND gate whose input nets have no other
    fanout, any input stuck-at-0 is equivalent to the output stuck-at-0;
    an inverter chain shifts polarity.  Representatives make fault lists
    (and the single-fault baseline's candidate space) 2–3x smaller
    without losing behaviour.

    Every fold is behaviorally exact — class members produce the same
    PO response on every pattern — which is what lets the diagnosis
    layer simulate one matrix row per class ({!Explain.build_session}'s
    equivalence-class prune) and key the cross-phase signature cache
    ([Sig_cache]) by {!representative_indices}, sharing entries between the
    explanation matrix and the single-fault/dictionary baselines
    (soundness argument in DESIGN.md §10). *)

type fault = { site : Netlist.net; stuck : bool }

val compare_fault : fault -> fault -> int

val to_string : Netlist.t -> fault -> string
(** e.g. [G16 sa1]: how reports name a fault. *)

type collapsed

val collapse : Netlist.t -> collapsed
(** Compute structural equivalence classes over every (net, polarity)
    pair: [2 * num_nets] faults. *)

val representatives : collapsed -> fault list
(** One fault per class, in ascending (site, polarity) order. *)

val representative_indices : collapsed -> int array
(** Every fault's class representative, as a fresh array over fault
    indices [2 * site + (1 if stuck-at-1)]: entry [i] is the index of
    fault [i]'s representative.  Reading it writes nothing, so it can
    be shared across domains. *)

val class_of : collapsed -> fault -> fault list
(** All members of the fault's class. *)

val num_classes : collapsed -> int

(** Baseline 1: classic single-fault effect-cause diagnosis.

    Every collapsed stuck-at fault is simulated over the full test set
    and ranked by how well its signature matches the datalog.  This is
    the textbook flow commercial tools descend from — and the one that
    collapses as soon as more than one defect is present, which the
    comparison tables quantify. *)

type ranked = { fault : Fault_list.fault; score : Scoring.score }

type result = {
  best : ranked list;  (** All faults tied at the best score. *)
  ranking : ranked list;  (** Every fault, best first. *)
}

val rank : Fault_list.fault array -> Scoring.score array -> result
(** [rank faults scores] ranks each fault by its score ([scores.(i)]
    is [faults.(i)]'s), best first: {!Scoring.compare_score}, then
    {!Fault_list.compare_fault}.  [best] is every fault tied with the
    top score.  The one ranking of the single-fault baselines, this
    module's and [Dict_diag]'s. *)

val diagnose_session : Session.t -> Datalog.t -> result
(** Score and rank every representative fault of the session.
    Signatures resolve through the session: cache hits replay, misses
    fill through {!Session.fault_triples}' batched sweep and warm the
    cache for later trials. *)

val callout_nets : result -> Netlist.net list
(** Sites of the best-tied faults, ascending, each once. *)

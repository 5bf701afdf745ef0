(** Baseline 1: classic single-fault effect-cause diagnosis.

    Every collapsed stuck-at fault is simulated over the full test set
    and ranked by how well its signature matches the datalog.  This is
    the textbook flow commercial tools descend from — and the one that
    collapses as soon as more than one defect is present, which the
    comparison tables quantify. *)

type ranked = { fault : Fault_list.fault; score : Scoring.score }

type result = {
  best : ranked list;  (** All faults tied at the best score. *)
  ranking : ranked list;  (** Top [keep] faults, best first. *)
}

val diagnose_session : ?keep:int -> Session.t -> Datalog.t -> result
(** [keep] bounds the returned ranking (default 20); the full universe is
    still scored.  Signatures resolve through the session: cache hits
    replay, misses fill through {!Session.fault_triples} batched slabs
    and warm the cache for later trials. *)

val callout_nets : result -> Netlist.net list
(** Sites of the best-tied faults. *)

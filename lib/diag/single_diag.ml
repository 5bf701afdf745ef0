type ranked = { fault : Fault_list.fault; score : Scoring.score }

type result = { best : ranked list; ranking : ranked list }

(* Best first: score, then fault order, so ties rank alike in every
   single-fault baseline. *)
let rank ?(keep = 20) faults scores =
  let sorted =
    List.init (Array.length faults) (fun i -> { fault = faults.(i); score = scores.(i) })
    |> List.sort (fun a b ->
           match Scoring.compare_score a.score b.score with
           | 0 -> Fault_list.compare_fault a.fault b.fault
           | c -> c)
  in
  match sorted with
  | [] -> { best = []; ranking = [] }
  | top :: _ ->
    {
      best = List.filter (fun r -> Scoring.compare_score r.score top.score = 0) sorted;
      ranking = List.filteri (fun i _ -> i < keep) sorted;
    }

let diagnose_session ?keep session dlog =
  let faults = Session.representatives session in
  (* All representative signatures at once: cache hits replay, misses go
     through the session's PPSFP slabs instead of one scalar cone walk
     per (fault, block) — the former cold-path hot spot of this
     baseline.  Cached rows come from the explanation matrix and every
     earlier trial on this problem. *)
  let triples = Session.fault_triples session faults in
  let words = Datalog.observed_words dlog (Session.blocks session) in
  let npos = Datalog.npos dlog in
  rank ?keep faults (Array.map (Scoring.score_triples words ~npos) triples)

let callout_nets r =
  List.sort_uniq compare (List.map (fun r -> r.fault.Fault_list.site) r.best)

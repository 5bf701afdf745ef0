type flavour = Full_response | Pass_fail

type entry = {
  fault : Fault_list.fault;
  full : Bitvec.t array; (* per PO, bit per pattern; [||] for pass/fail *)
  detect : Bitvec.t; (* bit per pattern: any output fails *)
}

type t = {
  flavour : flavour;
  npatterns : int;
  npos : int;
  entries : entry list;
}

let num_entries t = List.length t.entries

let build_session flavour session =
  let net = Session.netlist session in
  let pats = Session.patterns session in
  let npatterns = Pattern.count pats in
  (* All entry signatures in one pass: cache hits replay (keyed by class
     representative, exactly the faults enumerated here), misses fill
     through the session's PPSFP slabs rather than per-fault cone
     walks — dictionary construction is the most signature-hungry
     consumer in the repo. *)
  let faults = Session.representatives session in
  let triples = Session.fault_triples session faults in
  let entries =
    List.init (Array.length faults) (fun i ->
        let fault = faults.(i) in
        let signature = Session.signature_of_triples session triples.(i) in
        let detect = Bitvec.create npatterns in
        Array.iter (fun po_bits -> Bitvec.union_into ~dst:detect po_bits) signature;
        let full = match flavour with Full_response -> signature | Pass_fail -> [||] in
        { fault; full; detect })
  in
  { flavour; npatterns; npos = Netlist.num_pos net; entries }

let size_bits t =
  let per_entry =
    match t.flavour with
    | Full_response -> t.npatterns * t.npos
    | Pass_fail -> t.npatterns
  in
  per_entry * num_entries t

type ranked = { fault : Fault_list.fault; score : Scoring.score }

type result = { best : ranked list; ranking : ranked list }

(* Full-response matching: per-observation confusion counts, identical in
   spirit to Single_diag but read from storage instead of simulated. *)
let score_full t dlog entry =
  let explained = ref 0 and missed = ref 0 in
  let spurious_fail = ref 0 and spurious_pass = ref 0 in
  for p = 0 to t.npatterns - 1 do
    let failing = Datalog.is_failing dlog p in
    let fail_set = Datalog.failing_pos dlog p in
    for oi = 0 to t.npos - 1 do
      let predicted = Bitvec.get entry.full.(oi) p in
      let observed = failing && List.mem oi fail_set in
      match (observed, predicted) with
      | true, true -> incr explained
      | true, false -> incr missed
      | false, true -> if failing then incr spurious_fail else incr spurious_pass
      | false, false -> ()
    done
  done;
  {
    Scoring.explained = !explained;
    missed = !missed;
    spurious_fail = !spurious_fail;
    spurious_pass = !spurious_pass;
  }

(* Pass/fail matching: pattern-granular confusion counts. *)
let score_passfail t dlog entry =
  let explained = ref 0 and missed = ref 0 and spurious = ref 0 in
  for p = 0 to t.npatterns - 1 do
    let observed = Datalog.is_failing dlog p in
    let predicted = Bitvec.get entry.detect p in
    match (observed, predicted) with
    | true, true -> incr explained
    | true, false -> incr missed
    | false, true -> incr spurious
    | false, false -> ()
  done;
  {
    Scoring.explained = !explained;
    missed = !missed;
    spurious_fail = 0;
    spurious_pass = !spurious;
  }

let diagnose ?(keep = 20) t dlog =
  if Datalog.npatterns dlog <> t.npatterns then
    invalid_arg "Dict_diag.diagnose: datalog pattern count differs from dictionary";
  let score =
    match t.flavour with
    | Full_response -> score_full t dlog
    | Pass_fail -> score_passfail t dlog
  in
  let scored =
    List.map (fun (e : entry) -> { fault = e.fault; score = score e }) t.entries
  in
  let sorted =
    List.sort
      (fun a b ->
        match Scoring.compare_score a.score b.score with
        | 0 -> Fault_list.compare_fault a.fault b.fault
        | c -> c)
      scored
  in
  match sorted with
  | [] -> { best = []; ranking = [] }
  | top :: _ ->
    {
      best = List.filter (fun r -> Scoring.compare_score r.score top.score = 0) sorted;
      ranking = List.filteri (fun i _ -> i < keep) sorted;
    }

let callout_nets r =
  List.sort_uniq compare (List.map (fun rk -> rk.fault.Fault_list.site) r.best)

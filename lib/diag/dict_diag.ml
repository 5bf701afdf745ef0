type flavour = Full_response | Pass_fail

type entry = {
  fault : Fault_list.fault;
  response : int array;
      (* Full-response: the fault's signature triples.  Pass/fail: per
         block, the OR of its diff words, a bit per pattern that fails
         on some output. *)
}

type t = {
  flavour : flavour;
  blocks : Pattern.block array;
  npatterns : int;
  npos : int;
  entries : entry list;
}

let num_entries t = List.length t.entries

let detect_words nblocks triples =
  let detect = Array.make nblocks 0 in
  let i = ref 0 in
  while !i < Array.length triples do
    let bi = triples.(!i) in
    detect.(bi) <- detect.(bi) lor triples.(!i + 2);
    i := !i + 3
  done;
  detect

let build_session flavour session =
  let net = Session.netlist session in
  let blocks = Session.blocks session in
  (* All entry signatures in one pass: cache hits replay (keyed by class
     representative, exactly the faults enumerated here), misses fill
     through the session's PPSFP slabs rather than per-fault cone
     walks — dictionary construction is the most signature-hungry
     consumer in the repo. *)
  let faults = Session.representatives session in
  let triples = Session.fault_triples session faults in
  let entries =
    List.init (Array.length faults) (fun i ->
        let response =
          match flavour with
          | Full_response -> triples.(i)
          | Pass_fail -> detect_words (Array.length blocks) triples.(i)
        in
        { fault = faults.(i); response })
  in
  {
    flavour;
    blocks;
    npatterns = Pattern.count (Session.patterns session);
    npos = Netlist.num_pos net;
    entries;
  }

let size_bits t =
  let per_entry =
    match t.flavour with
    | Full_response -> t.npatterns * t.npos
    | Pass_fail -> t.npatterns
  in
  per_entry * num_entries t

type ranked = { fault : Fault_list.fault; score : Scoring.score }

type result = { best : ranked list; ranking : ranked list }

(* Pass/fail matching: pattern-granular confusion counts, a word of
   patterns at a time against the datalog's failing-pattern words.
   Both sides hold no bit past a block's live width. *)
let score_passfail (words : Datalog.words) detect =
  let explained = ref 0 and missed = ref 0 and spurious = ref 0 in
  Array.iteri
    (fun bi d ->
      let fail = words.fail.(bi) in
      explained := !explained + Bitvec.popcount_word (d land fail);
      missed := !missed + Bitvec.popcount_word (fail land lnot d);
      spurious := !spurious + Bitvec.popcount_word (d land lnot fail))
    detect;
  {
    Scoring.explained = !explained;
    missed = !missed;
    spurious_fail = 0;
    spurious_pass = !spurious;
  }

let diagnose ?(keep = 20) t dlog =
  if Datalog.npatterns dlog <> t.npatterns then
    invalid_arg "Dict_diag.diagnose: datalog pattern count differs from dictionary";
  let words = Datalog.observed_words dlog t.blocks in
  let score (e : entry) =
    match t.flavour with
    | Full_response ->
      (* Per observation, read from the stored signature exactly as
         [Single_diag] scores a simulated one. *)
      Scoring.score_triples words ~npos:t.npos e.response
    | Pass_fail -> score_passfail words e.response
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

type flavour = Full_response | Pass_fail

type t = {
  flavour : flavour;
  blocks : Pattern.block array;
  npatterns : int;
  npos : int;
  faults : Fault_list.fault array;
  responses : int array array;
      (* Per fault.  Full-response: the fault's signature triples.
         Pass/fail: per block, the OR of its diff words, a bit per
         pattern that fails on some output. *)
}

let num_entries t = Array.length t.faults

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
  let responses =
    match flavour with
    | Full_response -> triples
    | Pass_fail -> Array.map (detect_words (Array.length blocks)) triples
  in
  {
    flavour;
    blocks;
    npatterns = Pattern.count (Session.patterns session);
    npos = Netlist.num_pos net;
    faults;
    responses;
  }

let size_bits t =
  let per_entry =
    match t.flavour with
    | Full_response -> t.npatterns * t.npos
    | Pass_fail -> t.npatterns
  in
  per_entry * num_entries t

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

let diagnose ?keep t dlog =
  if Datalog.npatterns dlog <> t.npatterns then
    invalid_arg "Dict_diag.diagnose: datalog pattern count differs from dictionary";
  let words = Datalog.observed_words dlog t.blocks in
  let score =
    match t.flavour with
    | Full_response ->
      (* Per observation, read from the stored signature exactly as
         [Single_diag] scores a simulated one. *)
      Scoring.score_triples words ~npos:t.npos
    | Pass_fail -> score_passfail words
  in
  Single_diag.rank ?keep t.faults (Array.map score t.responses)

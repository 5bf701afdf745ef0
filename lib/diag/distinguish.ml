let distinguishing_pattern ?(attempts = 8) net rng a b =
  let overlay_a = Scoring.overlay_of_multiplet a in
  let overlay_b = Scoring.overlay_of_multiplet b in
  let npis = Netlist.num_pis net in
  let rec try_block k =
    if k = 0 then None
    else begin
      let pats = Pattern.random rng ~npis ~count:Bitvec.word_bits in
      let block = List.hd (Pattern.blocks pats) in
      let va = Logic_sim.simulate_block_overlay net block overlay_a in
      let vb = Logic_sim.simulate_block_overlay net block overlay_b in
      let mask = Logic.mask_of_width block.Pattern.width in
      let diff =
        Array.fold_left
          (fun acc po -> acc lor ((va.(po) lxor vb.(po)) land mask))
          0 (Netlist.pos net)
      in
      if diff = 0 then try_block (k - 1)
      else begin
        (* Lowest differing pattern in the block. *)
        let rec lowest k = if diff lsr k land 1 = 1 then k else lowest (k + 1) in
        Some (Pattern.pattern pats (lowest 0))
      end
    end
  in
  try_block attempts

type progress = {
  patterns : Pattern.t;
  dlog : Datalog.t;
  solutions_before : int;
  solutions_after : int;
  added : int;
  survivors : Fault_list.fault list list;
}

(* Extend a datalog with the comparison of one new pattern. *)
let extend_datalog net pats dlog vector observed_po =
  let p = Pattern.count pats - 1 in
  ignore vector;
  let expected = Logic_sim.simulate_pattern net (Pattern.pattern pats p) in
  let failing =
    List.filter
      (fun oi -> observed_po.(oi) <> expected.((Netlist.pos net).(oi)))
      (List.init (Netlist.num_pos net) Fun.id)
  in
  let entries =
    List.map (fun q -> (q, Datalog.failing_pos dlog q)) (Datalog.failing_patterns dlog)
  in
  let entries = if failing = [] then entries else (p, failing) :: entries in
  Datalog.of_entries ~npatterns:(Pattern.count pats) ~npos:(Netlist.num_pos net) entries

(* A hypothesis survives a new observation iff it predicts it exactly:
   same failing outputs on the applied pattern.  Note this is the one
   place per-pattern consistency IS sound — the adaptive pattern was
   chosen to separate specific whole-circuit hypotheses, and each
   hypothesis is a complete behavioural model, not a single-site
   fragment. *)
let consistent net vector observed_po multiplet =
  let p1 = Pattern.of_list ~npis:(Netlist.num_pis net) [ vector ] in
  let predicted =
    Logic_sim.responses_overlay net p1 (Scoring.overlay_of_multiplet multiplet)
  in
  let ok = ref true in
  Array.iteri
    (fun oi _ -> if Bitvec.get predicted.(oi) 0 <> observed_po.(oi) then ok := false)
    (Netlist.pos net);
  !ok

(* First pair of hypotheses the budgeted search can separate. *)
let rec separable_pair net rng = function
  | a :: rest -> (
    let found =
      List.find_map
        (fun b ->
          match distinguishing_pattern net rng a b with
          | Some v -> Some (a, b, v)
          | None -> None)
        rest
    in
    match found with Some _ as r -> r | None -> separable_pair net rng rest)
  | [] -> None

let max_tracked = 16

let sharpen ?(rounds = 8) net pats0 dlog0 ~tester ~rng =
  let m0 = Explain.build_session (Session.create net pats0) dlog0 in
  let before = Exact_cover.solve ~max_solutions:max_tracked m0 in
  let solutions_before = List.length before.Exact_cover.multiplets in
  let pats = ref pats0 in
  let dlog = ref dlog0 in
  let added = ref 0 in
  (* Every adaptive observation applied so far; a hypothesis must explain
     all of them to stay alive. *)
  let adaptive_obs = ref [] in
  let survivors solutions =
    List.filter
      (fun sol ->
        List.for_all (fun (vector, po) -> consistent net vector po sol) !adaptive_obs)
      solutions
  in
  let current = ref before.Exact_cover.multiplets in
  let stop = ref (not before.Exact_cover.complete) in
  let round = ref 0 in
  while (not !stop) && !round < rounds && List.length !current > 1 do
    incr round;
    match separable_pair net rng !current with
    | None -> stop := true
    | Some (_, _, vector) ->
      let observed_po = tester vector in
      pats := Pattern.append !pats (Pattern.of_list ~npis:(Netlist.num_pis net) [ vector ]);
      incr added;
      dlog := extend_datalog net !pats !dlog vector observed_po;
      adaptive_obs := (vector, observed_po) :: !adaptive_obs;
      (* Re-solve on the extended evidence — new failing observations can
         both eliminate hypotheses and surface ones a truncated earlier
         enumeration missed — then keep only hypotheses consistent with
         every adaptive observation.  The extended test set is a new
         problem, hence a new session. *)
      let m = Explain.build_session (Session.create net !pats) !dlog in
      let r = Exact_cover.solve ~max_solutions:max_tracked m in
      if not r.Exact_cover.complete then stop := true
      else current := survivors r.Exact_cover.multiplets
  done;
  {
    patterns = !pats;
    dlog = !dlog;
    solutions_before;
    solutions_after = List.length !current;
    added = !added;
    survivors = !current;
  }

(* Slow references the oracles compare the engine against: the overlay
   scorer, the brute-force explanation matrix, the structural seed pool,
   the scalar signature fill, the per-aggressor bridge screen and the
   cover pass that probes every move every round.  Each one is the simplest correct
   computation of its quantity — whole-block overlay resimulation, or
   the per-fault per-block scalar sweep — and shares nothing with the
   batched kernels under test. *)

(* --- Overlay scorer -------------------------------------------------- *)

let zero = { Scoring.explained = 0; missed = 0; spurious_fail = 0; spurious_pass = 0 }

let add (a : Scoring.score) (b : Scoring.score) =
  {
    Scoring.explained = a.explained + b.explained;
    missed = a.missed + b.missed;
    spurious_fail = a.spurious_fail + b.spurious_fail;
    spurious_pass = a.spurious_pass + b.spurious_pass;
  }

(* One pattern block, scored with word-parallel bit counting: per output,
   the predicted-failure word is the good/overlay simulation difference,
   the observed-failure word comes from the datalog, and each score
   component is a popcount of a mask combination. *)
let score_block net dlog overlay (block : Pattern.block) =
  let good = Logic_sim.simulate_block net block in
  let faulty = Logic_sim.simulate_block_overlay net block overlay in
  let mask = Logic.mask_of_width block.width in
  let pos = Netlist.pos net in
  let npos = Array.length pos in
  let observed = Array.make npos 0 in
  let fail_mask = ref 0 in
  for k = 0 to block.width - 1 do
    match Datalog.failing_pos dlog (block.base + k) with
    | [] -> ()
    | ois ->
      fail_mask := !fail_mask lor (1 lsl k);
      List.iter (fun oi -> observed.(oi) <- observed.(oi) lor (1 lsl k)) ois
  done;
  let explained = ref 0 and missed = ref 0 in
  let spurious_fail = ref 0 and spurious_pass = ref 0 in
  for oi = 0 to npos - 1 do
    let predicted = (good.(pos.(oi)) lxor faulty.(pos.(oi))) land mask in
    let obs = observed.(oi) in
    explained := !explained + Logic.popcount (predicted land obs);
    missed := !missed + Logic.popcount (obs land lnot predicted);
    let spurious = predicted land lnot obs in
    spurious_fail := !spurious_fail + Logic.popcount (spurious land !fail_mask);
    spurious_pass := !spurious_pass + Logic.popcount (spurious land lnot !fail_mask land mask)
  done;
  {
    Scoring.explained = !explained;
    missed = !missed;
    spurious_fail = !spurious_fail;
    spurious_pass = !spurious_pass;
  }

(* Simulate the overlay over the whole set and score it, block by
   block. *)
let evaluate net pats dlog overlay =
  List.fold_left
    (fun acc block -> add acc (score_block net dlog overlay block))
    zero (Pattern.blocks pats)

let evaluate_multiplet net pats dlog faults =
  evaluate net pats dlog (Scoring.overlay_of_multiplet faults)

(* --- Explanation matrix ---------------------------------------------- *)

(* Both polarities of every net in the union of the failing outputs'
   fan-in cones, ascending: the seed pool [Explain] starts from, built
   from per-output cone walks instead of its one-pass CSR sweep. *)
let seed_pool net dlog =
  let in_pool = Array.make (Netlist.num_nets net) false in
  let pos = Netlist.pos net in
  Array.iter
    (fun (ob : Datalog.observation) ->
      Array.iteri
        (fun n inside -> if inside then in_pool.(n) <- true)
        (Netlist.fanin_cone net pos.(ob.po)))
    (Datalog.observations dlog);
  let pool = ref [] in
  for n = Netlist.num_nets net - 1 downto 0 do
    if in_pool.(n) then
      pool :=
        { Fault_list.site = n; stuck = false } :: { Fault_list.site = n; stuck = true } :: !pool
  done;
  Array.of_list !pool

(* Same accumulators as [Explain.build_session], computed the slow way: one full
   overlay resimulation per (candidate, block), per-bit scans, and an
   association list for the observation index.  No CSR, no reachability
   screen, no event queue. *)
let naive_matrices net pats dlog (candidates : Fault_list.fault array) =
  let observations = Datalog.observations dlog in
  let nobs = Array.length observations in
  let failing = Array.of_list (Datalog.failing_patterns dlog) in
  let nfp = Array.length failing in
  let fp_of p =
    let r = ref (-1) in
    Array.iteri (fun i q -> if q = p then r := i) failing;
    !r
  in
  let obs_index p po =
    let r = ref (-1) in
    Array.iteri
      (fun i (ob : Datalog.observation) ->
        if ob.pattern = p && ob.po = po then r := i)
      observations;
    !r
  in
  let ncand = Array.length candidates in
  let covers = Array.init ncand (fun _ -> Bitvec.create nobs) in
  let matched = Array.make_matrix ncand nfp 0 in
  let spurious = Array.make_matrix ncand nfp 0 in
  let mispredict_pass = Array.make ncand 0 in
  Array.iteri
    (fun c (f : Fault_list.fault) ->
      List.iter
        (fun (block : Pattern.block) ->
          let good = Logic_sim.simulate_block net block in
          let faulty =
            Logic_sim.simulate_block_overlay net block
              [ Logic_sim.force f.site f.stuck ]
          in
          for k = 0 to block.width - 1 do
            let p = block.base + k in
            let any = ref false in
            Array.iteri
              (fun oi po ->
                if (good.(po) lxor faulty.(po)) lsr k land 1 = 1 then begin
                  any := true;
                  let fp = fp_of p in
                  if fp >= 0 then
                    let i = obs_index p oi in
                    if i >= 0 then begin
                      Bitvec.set covers.(c) i true;
                      matched.(c).(fp) <- matched.(c).(fp) + 1
                    end
                    else spurious.(c).(fp) <- spurious.(c).(fp) + 1
                end)
              (Netlist.pos net);
            if !any && fp_of p < 0 then
              mispredict_pass.(c) <- mispredict_pass.(c) + 1
          done)
        (Pattern.blocks pats))
    candidates;
  (covers, matched, spurious, mispredict_pass)

(* --- Scalar signature fill ------------------------------------------- *)

(* Triples of one fault over the whole set in the canonical order
   (blocks ascending, POs ascending within a block): one scalar cone
   walk per block. *)
let signature_triples c sim ~site ~stuck =
  let goods = Sig_cache.goods c in
  let acc = ref [] in
  Array.iteri
    (fun bi (block : Pattern.block) ->
      Fault_sim.iter_po_diffs sim ~good:goods.(bi) ~width:block.width ~site ~stuck
        (fun oi d -> acc := d :: oi :: bi :: !acc))
    (Sig_cache.blocks c);
  Array.of_list (List.rev !acc)

(* [Sig_cache.find], filling a miss with the scalar triples. *)
let lookup c sim ~site ~stuck =
  let k = Sig_cache.key ~site ~stuck in
  match Sig_cache.find c k with
  | Some triples -> triples
  | None ->
    let triples = signature_triples c sim ~site ~stuck in
    Sig_cache.store c [| k |] [| triples |];
    triples

(* --- Aggressor screens ---------------------------------------------- *)

(* The oracle of [Scoring.screen_aggressors]: one
   [batch_po_diffs_delta] injection of [good(victim) lxor good(a)] per
   aggressor, its triples scored as a signature. *)
let screen_per_aggressor session dlog ~victim aggressors =
  let blocks = Session.blocks session and goods = Session.goods session in
  let sim = Fault_sim.create ~reach:(Session.reach session) (Session.netlist session) in
  let b = Fault_sim.prepare_batch sim ~blocks ~goods in
  let words = Datalog.observed_words dlog blocks in
  List.map
    (fun a ->
      let triples = ref [] in
      Fault_sim.batch_po_diffs_delta b ~site:victim
        ~deltas:(Array.map (fun g -> g.(victim) lxor g.(a)) goods)
        (fun bi oi w -> triples := w :: oi :: bi :: !triples);
      Scoring.score_triples words ~npos:(Datalog.npos dlog)
        (Array.of_list (List.rev !triples)))
    aggressors

(* --- Greedy cover --------------------------------------------------- *)

(* [Noassume]'s greedy cover with every move probed every round: the
   moves are the single candidates, then each same-site sa0/sa1 pair;
   a round takes the free move of largest (3 * gain - cost, -cost,
   -index) with a positive gain, until none is left or [max_multiplet]
   members are chosen.  Returns the chosen candidate ids in order. *)
let greedy_cover ~tie_break ~max_multiplet m =
  let cand = Explain.candidates m in
  let n = Array.length cand in
  let nobs = Array.length (Explain.observations m) in
  let discount c =
    if tie_break then (2 * Explain.mispredict_fail m c) + Explain.mispredict_pass m c
    else 0
  in
  let pairs =
    List.filter_map
      (fun c ->
        if
          c + 1 < n
          && cand.(c).Fault_list.site = cand.(c + 1).Fault_list.site
          && cand.(c).Fault_list.stuck <> cand.(c + 1).Fault_list.stuck
        then Some [ c; c + 1 ]
        else None)
      (List.init n Fun.id)
  in
  let moves = Array.of_list (List.init n (fun c -> [ c ]) @ pairs) in
  let uncovered = Bitvec.create nobs in
  Bitvec.fill uncovered true;
  let chosen = ref [] in
  let rec round () =
    if List.length !chosen < max_multiplet then begin
      let best = ref None in
      Array.iteri
        (fun mi mv ->
          if not (List.exists (fun c -> List.mem c !chosen) mv) then begin
            let u = Bitvec.create nobs in
            List.iter (fun c -> Bitvec.union_into ~dst:u (Explain.covers m c)) mv;
            Bitvec.inter_into ~dst:u uncovered;
            let gain = Bitvec.popcount u in
            let cost = List.fold_left (fun acc c -> acc + discount c) 0 mv in
            let key = ((3 * gain) - cost, -cost, -mi) in
            if gain > 0 then
              match !best with
              | Some (k, _) when compare k key >= 0 -> ()
              | _ -> best := Some (key, mv)
          end)
        moves;
      match !best with
      | None -> ()
      | Some (_, mv) ->
        List.iter
          (fun c ->
            chosen := c :: !chosen;
            Bitvec.diff_into ~dst:uncovered (Explain.covers m c))
          mv;
        round ()
    end
  in
  round ();
  List.rev !chosen

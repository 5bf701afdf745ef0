type config = {
  tie_break : bool;
  validate : bool;
  per_pattern : bool;
  max_multiplet : int;
  layout : (Layout.t * float) option;
}

let default_config =
  {
    tie_break = true;
    validate = true;
    per_pattern = false;
    max_multiplet = 12;
    layout = None;
  }

type model =
  | Stuck_at of bool
  | Bridge_victim of Netlist.net list
  | Bridge_confirmed of { aggressor : Netlist.net; kind : Defect.bridge_kind }
  | Byzantine

type callout = {
  site : Netlist.net;
  polarities : bool list;
  models : model list;
  explained_obs : int;
}

type result = {
  multiplet : Fault_list.fault list;
  callouts : callout list;
  score : Scoring.score;
  candidates_considered : int;
  refinement_steps : int;
  cover_minimum : int option;
  cover_complete : bool;
}

(* Effective cover set of a candidate under the configuration: the
   per-pattern ablation only lets exact explainers cover anything. *)
let effective_covers config m c =
  if not config.per_pattern then Explain.covers m c
  else begin
    let obs = Explain.observations m in
    let failing = Explain.failing m in
    let fp_of_pattern = Hashtbl.create (Array.length failing) in
    Array.iteri (fun i p -> Hashtbl.add fp_of_pattern p i) failing;
    let cov = Bitvec.copy (Explain.covers m c) in
    Array.iteri
      (fun i (ob : Datalog.observation) ->
        let fp = Hashtbl.find fp_of_pattern ob.pattern in
        if not (Explain.exact m c fp) then Bitvec.set cov i false)
      obs;
    cov
  end

(* Candidate selection: maximise covered observations, discounted by the
   candidate's own misprediction record.  The discount is what keeps a
   near-output net — which trivially "covers" every failure of its output
   at the price of predicting failures everywhere else — from shadowing
   the true interior sites.  With [tie_break = false] (ablation) the raw
   cover count decides alone and exactly that pathology reappears.

   Besides single stuck lines, every site is also offered as an atomic
   {e byzantine pair} — both polarities together, i.e. the hypothesis
   "this net misbehaves in a stimulus-dependent way" (bridge victim,
   open, intermittent).  Without the pair move, the two polarities of the
   true site compete separately against single candidates that
   accidentally cover more, and sites get interleaved. *)
type move = Single of int | Pair of int * int

(* The cover/refine loops are where pathological datalogs hide, so both
   publish their iteration counts (DESIGN.md §9). *)
let c_cover_rounds = Obs.counter "cover.rounds"
let c_cover_moves = Obs.counter "cover.moves"
let c_cover_chosen = Obs.counter "cover.chosen"
let c_refine_rounds = Obs.counter "refine.rounds"
let c_refine_steps = Obs.counter "refine.steps"
let c_aggressor_screens = Obs.counter "callouts.aggressor_screens"
let c_budget_fallbacks = Obs.counter "cover.budget_fallbacks"

let greedy_cover config m =
  let candidates = Explain.candidates m in
  let ncand = Array.length candidates in
  let nobs = Array.length (Explain.observations m) in
  let covers = Array.init ncand (fun c -> effective_covers config m c) in
  let discount c =
    if config.tie_break then
      (2 * Explain.mispredict_fail m c) + Explain.mispredict_pass m c
    else 0
  in
  (* Pair moves: consecutive candidates on the same site (the pool always
     holds sa0 then sa1 for each seeded net). *)
  let pairs = ref [] in
  for c = 0 to ncand - 2 do
    if
      candidates.(c).Fault_list.site = candidates.(c + 1).Fault_list.site
      && candidates.(c).Fault_list.stuck <> candidates.(c + 1).Fault_list.stuck
    then pairs := Pair (c, c + 1) :: !pairs
  done;
  let moves = Array.of_list (List.init ncand (fun c -> Single c) @ List.rev !pairs) in
  (* Always a fresh vector: callers intersect into the result. *)
  let move_cover = function
    | Single c -> Bitvec.copy covers.(c)
    | Pair (c0, c1) ->
      let u = Bitvec.copy covers.(c0) in
      Bitvec.union_into ~dst:u covers.(c1);
      u
  in
  let move_cost = function
    | Single c -> discount c
    | Pair (c0, c1) -> discount c0 + discount c1
  in
  let move_members = function Single c -> [ c ] | Pair (c0, c1) -> [ c0; c1 ] in
  let uncovered = Bitvec.create nobs in
  Bitvec.fill uncovered true;
  let chosen = ref [] in
  (* O(1) membership keyed by candidate id: the selection loop probes
     every move each round, and [List.mem] on the chosen list made that
     quadratic in the multiplet size. *)
  let in_chosen = Array.make ncand false in
  let nchosen = ref 0 in
  let rounds = ref 0 in
  let continue = ref true in
  while !continue && !nchosen < config.max_multiplet do
    incr rounds;
    let best = ref None in
    Array.iteri
      (fun mi mv ->
        if List.for_all (fun c -> not in_chosen.(c)) (move_members mv) then begin
          let inter = move_cover mv in
          Bitvec.inter_into ~dst:inter uncovered;
          let gain = Bitvec.popcount inter in
          if gain > 0 then begin
            let key = ((3 * gain) - move_cost mv, -move_cost mv, -mi) in
            match !best with
            | Some (bkey, _) when compare bkey key >= 0 -> ()
            | _ -> best := Some (key, mv)
          end
        end)
      moves;
    match !best with
    | None -> continue := false
    | Some (_, mv) ->
      List.iter
        (fun c ->
          chosen := c :: !chosen;
          in_chosen.(c) <- true;
          incr nchosen;
          Bitvec.diff_into ~dst:uncovered covers.(c))
        (move_members mv)
  done;
  if Obs.enabled () then begin
    Obs.add c_cover_rounds !rounds;
    Obs.add c_cover_moves (Array.length moves);
    Obs.add c_cover_chosen !nchosen
  end;
  (List.rev !chosen, covers)

(* Drop members whose removal does not worsen the penalty; then try
   swapping each member for an alternative candidate that covers some of
   the member's exclusive observations.  Every accepted move re-runs full
   multiplet simulation, so interactions are always accounted for. *)
let refine m pats chosen covers =
  let net = Explain.netlist m in
  let dlog = Explain.datalog m in
  let session = Explain.session m in
  let goods = Session.goods session in
  let reach = Session.reach session in
  let cand = Explain.candidates m in
  let faults_of ids = List.map (fun c -> cand.(c)) ids in
  let score_of ids = Scoring.evaluate_multiplet ~goods ~reach net pats dlog (faults_of ids) in
  let steps = ref 0 in
  let current = ref chosen in
  (* O(1) membership mirror of [current]; the swap pass probes every
     candidate in the pool against it. *)
  let in_current = Array.make (Array.length cand) false in
  List.iter (fun c -> in_current.(c) <- true) chosen;
  let current_score = ref (score_of chosen) in
  let improved = ref true in
  let rounds = ref 0 in
  while !improved && !rounds < 3 do
    improved := false;
    incr rounds;
    (* Drop pass: fewer members preferred on non-worsening penalty, but a
       move may never lose explained observations — explanation coverage
       is the point of the multiplet. *)
    List.iter
      (fun c ->
        if List.length !current > 1 && in_current.(c) then begin
          let trial = List.filter (fun x -> x <> c) !current in
          let s = score_of trial in
          if
            s.Scoring.explained >= !current_score.Scoring.explained
            && Scoring.penalty s <= Scoring.penalty !current_score
          then begin
            current := trial;
            in_current.(c) <- false;
            current_score := s;
            incr steps;
            improved := true
          end
        end)
      !current;
    (* Swap pass: replace a member with a candidate overlapping its
       exclusive coverage if that strictly improves the penalty. *)
    List.iter
      (fun c ->
        if in_current.(c) then begin
          let others = List.filter (fun x -> x <> c) !current in
          let exclusive = Bitvec.copy covers.(c) in
          List.iter (fun o -> Bitvec.diff_into ~dst:exclusive covers.(o)) others;
          if not (Bitvec.is_empty exclusive) then begin
            (* Alternatives ranked by overlap with the exclusive set. *)
            let scored = ref [] in
            Array.iteri
              (fun a _ ->
                if a <> c && not in_current.(a) then begin
                  let inter = Bitvec.copy covers.(a) in
                  Bitvec.inter_into ~dst:inter exclusive;
                  let overlap = Bitvec.popcount inter in
                  if overlap > 0 then scored := (overlap, a) :: !scored
                end)
              cand;
            let alternatives =
              List.sort (fun (o1, a1) (o2, a2) ->
                  match compare o2 o1 with 0 -> compare a1 a2 | x -> x)
                !scored
            in
            let rec try_alts n = function
              | [] -> ()
              | _ when n = 0 -> ()
              | (_, a) :: rest ->
                let trial = a :: others in
                let s = score_of trial in
                if
                  s.Scoring.explained >= !current_score.Scoring.explained
                  && Scoring.penalty s < Scoring.penalty !current_score
                then begin
                  current := trial;
                  in_current.(c) <- false;
                  in_current.(a) <- true;
                  current_score := s;
                  incr steps;
                  improved := true
                end
                else try_alts (n - 1) rest
            in
            try_alts 6 alternatives
          end
        end)
      !current
  done;
  if Obs.enabled () then begin
    Obs.add c_refine_rounds !rounds;
    Obs.add c_refine_steps !steps
  end;
  (!current, !current_score, !steps)

(* Full good-machine words of every net, block by block, shared by the
   aggressor inference below. *)
type good_cache = {
  blocks : (Pattern.block * Logic_sim.net_values) list;
  fp_of_pattern : (int, int) Hashtbl.t;
  slot_of_fp : (int * int) array; (* failing pattern -> (block index, bit) *)
  good_at : fp:int -> Netlist.net -> bool; (* value on a failing pattern *)
}

let build_good_cache session failing =
  let fp_of_pattern = Hashtbl.create (Array.length failing) in
  Array.iteri (fun i p -> Hashtbl.add fp_of_pattern p i) failing;
  (* Good words come straight from the session — the explanation matrix
     already shares them. *)
  let goods = Session.goods session in
  let blocks =
    List.mapi (fun i b -> (b, goods.(i)))
      (Array.to_list (Session.blocks session))
  in
  let slot_of_fp = Array.make (max 1 (Array.length failing)) (0, 0) in
  List.iteri
    (fun bi (block, _) ->
      for k = 0 to block.Pattern.width - 1 do
        match Hashtbl.find_opt fp_of_pattern (block.Pattern.base + k) with
        | Some fp -> slot_of_fp.(fp) <- (bi, k)
        | None -> ()
      done)
    blocks;
  let words = Array.of_list (List.map snd blocks) in
  let good_at ~fp n =
    let bi, k = slot_of_fp.(fp) in
    words.(bi).(n) lsr k land 1 = 1
  in
  { blocks; fp_of_pattern; slot_of_fp; good_at }

let max_aggressors = 16

(* Aggressor inference for a bridge-victim hypothesis.  Hard filter: the
   aggressor must carry the needed faulty value of [site] on every
   failing pattern one of the site's stuck hypotheses explains.  Ranking
   among survivors: each survivor's dominant-bridge hypothesis is
   screened by event-driven simulation — the victim's error word under
   "victim follows [a]" is [good(victim) lxor good(a)] — and survivors
   are ordered by how closely the predicted failures match the datalog
   (a single-defect approximation; the final confirmation re-simulates
   the whole multiplet). *)
let infer_aggressors config m pats cache site members covers =
  let net = Explain.netlist m in
  let obs = Explain.observations m in
  let dlog = Explain.datalog m in
  let needed = Hashtbl.create 8 in
  List.iter
    (fun (c, f) ->
      if f.Fault_list.site = site then
        Bitvec.iter_set covers.(c) (fun oi ->
            let p = obs.(oi).Datalog.pattern in
            let fp = Hashtbl.find cache.fp_of_pattern p in
            Hashtbl.replace needed fp f.Fault_list.stuck))
    members;
  if Hashtbl.length needed = 0 then []
  else begin
    let session = Explain.session m in
    let words_arr = Array.of_list (List.map snd cache.blocks) in
    let nblocks = Array.length words_arr in
    (* Penalty of the dominant-bridge hypothesis "site follows a": one
       PPSFP sweep over all blocks on the scoring scratch refine already
       built for this problem (shared goods slab, PO-reachability screen
       and observed words).  An observed failure the hypothesis does not
       reproduce is a miss whether or not the output differs at all. *)
    let deltas = Array.make (max 1 nblocks) 0 in
    let screen a =
      for bi = 0 to nblocks - 1 do
        deltas.(bi) <- words_arr.(bi).(site) lxor words_arr.(bi).(a)
      done;
      let s =
        Scoring.screen_delta ~goods:(Session.goods session) ~reach:(Session.reach session)
          net pats dlog ~site ~deltas
      in
      (10 * s.Scoring.missed) + s.Scoring.spurious_fail + s.Scoring.spurious_pass
    in
    let physically_adjacent a =
      match config.layout with
      | None -> true
      | Some (placement, radius) -> Layout.distance placement site a <= radius
    in
    (* Word-parallel hard filter: the needed (failing pattern, value)
       pairs regrouped as a (mask, expected) word pair per block, so
       testing an aggressor is a couple of word compares instead of a
       hash fold — this runs once per net in the netlist. *)
    let need_mask = Array.make (max 1 nblocks) 0 in
    let need_val = Array.make (max 1 nblocks) 0 in
    Hashtbl.iter
      (fun fp v ->
        let bi, k = cache.slot_of_fp.(fp) in
        need_mask.(bi) <- need_mask.(bi) lor (1 lsl k);
        if v then need_val.(bi) <- need_val.(bi) lor (1 lsl k))
      needed;
    let need_blocks = ref [] in
    for bi = nblocks - 1 downto 0 do
      if need_mask.(bi) <> 0 then need_blocks := bi :: !need_blocks
    done;
    let need_blocks = Array.of_list !need_blocks in
    let carries_needed a =
      let ok = ref true in
      let i = ref 0 in
      let n = Array.length need_blocks in
      while !ok && !i < n do
        let bi = need_blocks.(!i) in
        if (words_arr.(bi).(a) lxor need_val.(bi)) land need_mask.(bi) <> 0 then
          ok := false;
        incr i
      done;
      !ok
    in
    let candidates = ref [] in
    for a = Netlist.num_nets net - 1 downto 0 do
      if a <> site && physically_adjacent a && carries_needed a then begin
        if Obs.enabled () then Obs.incr c_aggressor_screens;
        candidates := (screen a, a) :: !candidates
      end
    done;
    let ranked = List.sort compare !candidates in
    List.filteri (fun i _ -> i < max_aggressors) (List.map snd ranked)
  end

let build_callouts config m pats chosen covers =
  let cand = Explain.candidates m in
  let members = List.map (fun c -> (c, cand.(c))) chosen in
  let sites = List.sort_uniq compare (List.map (fun (_, f) -> f.Fault_list.site) members) in
  let cache = build_good_cache (Explain.session m) (Explain.failing m) in
  let callouts =
    List.map
      (fun site ->
        let mine = List.filter (fun (_, f) -> f.Fault_list.site = site) members in
        let polarities =
          List.sort_uniq compare (List.map (fun (_, f) -> f.Fault_list.stuck) mine)
        in
        let explained_obs =
          List.fold_left (fun acc (c, _) -> acc + Bitvec.popcount covers.(c)) 0 mine
        in
        let aggressors = infer_aggressors config m pats cache site mine covers in
        let models =
          match (polarities, aggressors) with
          | [ v ], [] -> [ Stuck_at v ]
          | [ v ], ags -> [ Stuck_at v; Bridge_victim ags ]
          | _, [] -> [ Byzantine ]
          | _, ags -> [ Bridge_victim ags; Byzantine ]
        in
        { site; polarities; models; explained_obs })
      sites
  in
  List.sort (fun a b -> compare b.explained_obs a.explained_obs) callouts

(* Bridge validation: for each called-out site with plausible aggressors,
   replace its stuck members by an actual bridge overlay (each kind, top
   aggressors) and keep the best hypothesis that strictly improves the
   simultaneous-simulation penalty without losing explained
   observations. *)
let max_validated_aggressors = 10

(* Bridge confirmation runs on the multi-site PPSFP sweep
   ([Scoring.evaluate_bridges], DESIGN.md §6a): per callout, a few read
   sweeps of the rest of the multiplet give every hypothesis its held
   victim (and, for wired kinds, aggressor) words — exactly, feedback
   bridges included, by replaying the overlay simulator's capped
   fixpoint lane by lane — and each hypothesis is then scored in one
   event-driven sweep instead of a full-circuit overlay resimulation. *)
let validate_bridges config m pats multiplet callouts score =
  if not config.validate then (callouts, score)
  else begin
    let session = Explain.session m in
    let score_bridges =
      Scoring.evaluate_bridges ~goods:(Session.goods session) ~reach:(Session.reach session)
        (Explain.netlist m) pats (Explain.datalog m)
    in
    let current_score = ref score in
    let callouts =
      List.map
        (fun callout ->
          let aggressors =
            List.concat_map
              (function Bridge_victim ags -> ags | Stuck_at _ | Bridge_confirmed _ | Byzantine -> [])
              callout.models
          in
          let rest =
            List.filter (fun f -> f.Fault_list.site <> callout.site) multiplet
          in
          let hyps =
            List.concat_map
              (fun a ->
                List.map (fun kind -> (a, kind))
                  [ Defect.Dominant; Defect.Wired_and; Defect.Wired_or ])
              (List.filteri (fun i _ -> i < max_validated_aggressors) aggressors)
          in
          (* Every bridge hypothesis that strictly improves the match is
             recorded; several aggressors can be exactly tied (test-set
             resolution limit), and the analyst needs all of them. *)
          let accepted = ref [] in
          List.iter2
            (fun (a, kind) s ->
              if
                s.Scoring.explained >= !current_score.Scoring.explained
                && Scoring.penalty s < Scoring.penalty !current_score
              then accepted := (s, a, kind) :: !accepted)
            hyps
            (score_bridges ~rest ~victim:callout.site hyps);
          match !accepted with
          | [] -> callout
          | l ->
            let best_score =
              List.fold_left
                (fun acc (s, _, _) -> if Scoring.compare_score s acc < 0 then s else acc)
                (let s, _, _ = List.hd l in
                 s)
                l
            in
            let tied =
              List.filter (fun (s, _, _) -> Scoring.compare_score s best_score = 0) l
            in
            (* Keep one hypothesis per aggressor, at most three. *)
            let seen = Hashtbl.create 4 in
            let confirmed =
              List.filter_map
                (fun (_, a, kind) ->
                  if Hashtbl.mem seen a || Hashtbl.length seen >= 3 then None
                  else begin
                    Hashtbl.add seen a ();
                    Some (Bridge_confirmed { aggressor = a; kind })
                  end)
                (List.rev tied)
            in
            current_score := best_score;
            { callout with models = confirmed @ callout.models })
        callouts
    in
    (callouts, !current_score)
  end

let diagnose_matrix ?(config = default_config) m =
  (* The cover phase runs the paper's greedy pass always; under
     [cover = Exact] the greedy result then seeds the implicit
     hitting-set loop as an upper bound.  When the loop proves greedy
     minimal it returns the seed list unchanged, so the rest of the
     pipeline — refine, callouts, bridge validation, report — is
     byte-identical to the greedy backend; only a strictly smaller
     proven cover replaces it.  Budget exhaustion falls back to greedy
     with [cover_complete = false] and a warning counter. *)
  let chosen, covers, cover_minimum, cover_complete =
    Obs.phase "cover" (fun () ->
        let chosen, covers = greedy_cover config m in
        let scfg = Session.config (Explain.session m) in
        match scfg.Session.cover with
        | Session.Greedy -> (chosen, covers, None, true)
        | Session.Exact ->
          let r =
            Obs.phase "cover.exact" (fun () ->
                Hitting_set.solve ~node_budget:scfg.Session.cover_budget
                  ~max_size:config.max_multiplet ~covers ~seed:chosen m)
          in
          if not r.Hitting_set.complete then begin
            if Obs.enabled () then Obs.incr c_budget_fallbacks;
            (chosen, covers, None, false)
          end
          else (r.Hitting_set.cover, covers, r.Hitting_set.minimum, true))
  in
  let session = Explain.session m in
  let net = Explain.netlist m in
  let pats = Session.patterns session in
  let dlog = Explain.datalog m in
  let final, score, steps =
    Obs.phase "refine" @@ fun () ->
    if config.validate && chosen <> [] then refine m pats chosen covers
    else
      let faults = List.map (fun c -> (Explain.candidates m).(c)) chosen in
      ( chosen,
        Scoring.evaluate_multiplet ~goods:(Session.goods session)
          ~reach:(Session.reach session) net pats dlog faults,
        0 )
  in
  let cand = Explain.candidates m in
  let multiplet =
    List.sort Fault_list.compare_fault (List.map (fun c -> cand.(c)) final)
  in
  let callouts = Obs.phase "callouts" (fun () -> build_callouts config m pats final covers) in
  let callouts, score =
    Obs.phase "validate-bridges" (fun () ->
        validate_bridges config m pats multiplet callouts score)
  in
  {
    multiplet;
    callouts;
    score;
    candidates_considered = Explain.num_seeded m;
    refinement_steps = steps;
    cover_minimum;
    cover_complete;
  }

let diagnose_session ?config session dlog =
  diagnose_matrix ?config (Explain.build_session session dlog)

let callout_nets r =
  let sites = List.map (fun c -> c.site) r.callouts in
  let confirmed =
    List.concat_map
      (fun c ->
        List.filter_map
          (function
            | Bridge_confirmed { aggressor; _ } -> Some aggressor
            | Stuck_at _ | Bridge_victim _ | Byzantine -> None)
          c.models)
      r.callouts
  in
  sites @ confirmed

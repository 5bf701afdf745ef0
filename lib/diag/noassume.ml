type cover = Greedy | Exact of int

type config = {
  cover : cover;
  tie_break : bool;
  validate : bool;
  per_pattern : bool;
  layout : (Layout.t * float) option;
}

let default_config =
  {
    cover = Greedy;
    tie_break = true;
    validate = true;
    per_pattern = false;
    layout = None;
  }

let max_multiplet = 12

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
    let failing = Explain.failing m in
    let cov = Bitvec.copy (Explain.covers m c) in
    (* Observations are ordered by pattern, as [failing] is: the
       failing-pattern index advances with them. *)
    let fp = ref 0 in
    Array.iteri
      (fun i (ob : Datalog.observation) ->
        while failing.(!fp) <> ob.pattern do
          incr fp
        done;
        if not (Explain.exact m c !fp) then Bitvec.set cov i false)
      (Explain.observations m);
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
  (* Filled after a static [Single 0]: a long array made from a young
     move forces a minor collection. *)
  let moves = Array.make (ncand + List.length !pairs) (Single 0) in
  for c = 0 to ncand - 1 do
    moves.(c) <- Single c
  done;
  List.iteri (fun i mv -> moves.(ncand + i) <- mv) (List.rev !pairs);
  let move_cost = function
    | Single c -> discount c
    | Pair (c0, c1) -> discount c0 + discount c1
  in
  let move_members = function Single c -> [ c ] | Pair (c0, c1) -> [ c0; c1 ] in
  let uncovered = Bitvec.create nobs in
  Bitvec.fill uncovered true;
  (* Observations a move would newly cover: a word loop over the
     uncovered set, which allocates nothing. *)
  let gain mv =
    let n = ref 0 in
    for i = 0 to Bitvec.num_words uncovered - 1 do
      let w =
        match mv with
        | Single c -> Bitvec.word covers.(c) i
        | Pair (c0, c1) -> Bitvec.word covers.(c0) i lor Bitvec.word covers.(c1) i
      in
      n := !n + Bitvec.popcount_word (w land Bitvec.word uncovered i)
    done;
    !n
  in
  let chosen = ref [] in
  (* O(1) membership keyed by candidate id. *)
  let in_chosen = Array.make ncand false in
  let free = function
    | Single c -> not in_chosen.(c)
    | Pair (c0, c1) -> not (in_chosen.(c0) || in_chosen.(c1))
  in
  (* Each round takes the free move of largest (3 * gain - cost, -cost,
     -index) with a positive gain.  Lazily: a move's gain only shrinks
     as [uncovered] does and its cost is fixed, so the value it was last
     scored at bounds its value now.  Moves wait in a max-heap on their
     last value; the top is rescored, and it is the round's move once
     rescoring leaves its value unchanged — no other move can exceed a
     bound that is below it.  A move that loses its gain or a member
     never gets them back, and leaves the heap. *)
  let nmoves = Array.length moves in
  let cost = Array.map move_cost moves in
  let value = Array.make nmoves 0 in
  let above i j =
    value.(i) > value.(j)
    || (value.(i) = value.(j) && (cost.(i) < cost.(j) || (cost.(i) = cost.(j) && i < j)))
  in
  let heap = Array.make (max 1 nmoves) 0 and size = ref 0 in
  let swap a b =
    let t = heap.(a) in
    heap.(a) <- heap.(b);
    heap.(b) <- t
  in
  let rec sift_up k =
    let p = (k - 1) / 2 in
    if k > 0 && above heap.(k) heap.(p) then begin
      swap k p;
      sift_up p
    end
  in
  let rec sift_down k =
    let l = (2 * k) + 1 in
    let top = if l < !size && above heap.(l) heap.(k) then l else k in
    let top = if l + 1 < !size && above heap.(l + 1) heap.(top) then l + 1 else top in
    if top <> k then begin
      swap k top;
      sift_down top
    end
  in
  let pop () =
    decr size;
    heap.(0) <- heap.(!size);
    sift_down 0
  in
  Array.iteri
    (fun mi mv ->
      let g = gain mv in
      if g > 0 then begin
        value.(mi) <- (3 * g) - cost.(mi);
        heap.(!size) <- mi;
        incr size;
        sift_up (!size - 1)
      end)
    moves;
  let rec best () =
    if !size = 0 then None
    else begin
      let mi = heap.(0) in
      let g = if free moves.(mi) then gain moves.(mi) else 0 in
      if g = 0 then begin
        pop ();
        best ()
      end
      else if (3 * g) - cost.(mi) = value.(mi) then begin
        pop ();
        Some moves.(mi)
      end
      else begin
        value.(mi) <- (3 * g) - cost.(mi);
        sift_down 0;
        best ()
      end
    end
  in
  let nchosen = ref 0 in
  let rounds = ref 0 in
  let continue = ref true in
  while !continue && !nchosen < max_multiplet do
    incr rounds;
    match best () with
    | None -> continue := false
    | Some mv ->
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

let max_alternatives = 6

(* Drop members whose removal does not worsen the penalty; then try
   swapping each member for an alternative candidate that covers some of
   the member's exclusive observations.  Every trial is scored by
   simulating the whole trial multiplet at once, so interactions are
   always accounted for — as a change sweep against a held base that
   differs from it at one site: the current multiplet for the drop
   trials, the member's [others] for its swap alternatives
   ([Scoring.hold], [Scoring.evaluate_trial]; DESIGN.md §6a). *)
let refine m scorer chosen covers =
  let cand = Explain.candidates m in
  let faults ids = List.map (fun c -> cand.(c)) ids in
  let hold ids = ignore (Scoring.hold scorer (faults ids) : Scoring.score) in
  let score_of ids = Scoring.evaluate_trial scorer (faults ids) in
  let cover_words = Array.map Bitvec.words covers in
  let steps = ref 0 in
  let current = ref chosen in
  (* O(1) membership mirror of [current]; the swap pass probes every
     candidate in the pool against it. *)
  let in_current = Array.make (Array.length cand) false in
  List.iter (fun c -> in_current.(c) <- true) chosen;
  hold chosen;
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
          hold !current;
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
            (* Alternatives ranked by overlap with the exclusive set,
               largest first, ties to the lower id; only the first
               [max_alternatives] are tried, so only they are kept, in
               a small sorted buffer.  Each overlap is a word loop over
               the exclusive set's non-zero words, which reads the
               candidate's cover words in place and allocates nothing. *)
            let ex_at = ref [] in
            for i = Bitvec.num_words exclusive - 1 downto 0 do
              if Bitvec.word exclusive i <> 0 then ex_at := i :: !ex_at
            done;
            let ex_at = Array.of_list !ex_at in
            let ex_w = Array.map (Bitvec.word exclusive) ex_at in
            let top = Array.make max_alternatives 0 in
            let top_overlap = Array.make max_alternatives 0 in
            let ntop = ref 0 in
            for a = 0 to Array.length cand - 1 do
              if a <> c && not in_current.(a) then begin
                let cw = cover_words.(a) in
                let overlap = ref 0 in
                for j = 0 to Array.length ex_at - 1 do
                  overlap :=
                    !overlap + Bitvec.popcount_word (cw.(ex_at.(j)) land ex_w.(j))
                done;
                (* Ids ascend, so an equal overlap never displaces. *)
                if
                  !overlap > 0
                  && (!ntop < max_alternatives || !overlap > top_overlap.(!ntop - 1))
                then begin
                  if !ntop < max_alternatives then incr ntop;
                  let j = ref (!ntop - 1) in
                  while !j > 0 && !overlap > top_overlap.(!j - 1) do
                    top.(!j) <- top.(!j - 1);
                    top_overlap.(!j) <- top_overlap.(!j - 1);
                    decr j
                  done;
                  top.(!j) <- a;
                  top_overlap.(!j) <- !overlap
                end
              end
            done;
            if !ntop > 0 then hold others;
            let rec try_alts i =
              if i < !ntop then begin
                let a = top.(i) in
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
                else try_alts (i + 1)
              end
            in
            try_alts 0
          end
        end)
      !current
  done;
  if Obs.enabled () then begin
    Obs.add c_refine_rounds !rounds;
    Obs.add c_refine_steps !steps
  end;
  (!current, !current_score, !steps)

let max_aggressors = 16

(* Aggressor inference for a bridge-victim hypothesis.  Hard filter: the
   aggressor must carry the needed faulty value of [site] on every
   failing pattern one of the site's stuck hypotheses explains.  Ranking
   among survivors: each survivor's dominant-bridge hypothesis — the
   victim's error word under "victim follows [a]" is
   [good(victim) lxor good(a)] — is screened on the site's one flip
   sweep ([Scoring.screen_aggressors]), and survivors are ordered by how
   closely the predicted failures match the datalog (a single-defect
   approximation; the final confirmation re-simulates the whole
   multiplet). *)
let infer_aggressors config m scorer site members covers =
  let net = Explain.netlist m in
  let obs = Explain.observations m in
  let session = Explain.session m in
  let good = Session.good session and nblocks = Array.length (Session.blocks session) in
  (* Word-parallel hard filter: the needed (failing pattern, value)
     pairs as a (mask, expected) word pair per block, so testing an
     aggressor is a couple of word compares — this runs once per net in
     the netlist.  A pattern two members need takes the last one's
     value. *)
  let need_mask = Array.make (max 1 nblocks) 0 in
  let need_val = Array.make (max 1 nblocks) 0 in
  List.iter
    (fun (c, f) ->
      if f.Fault_list.site = site then
        Bitvec.iter_set covers.(c) (fun oi ->
            let p = obs.(oi).Datalog.pattern in
            let bi = p / Bitvec.word_bits and bit = 1 lsl (p mod Bitvec.word_bits) in
            need_mask.(bi) <- need_mask.(bi) lor bit;
            need_val.(bi) <-
              (if f.Fault_list.stuck then need_val.(bi) lor bit
               else need_val.(bi) land lnot bit)))
    members;
  if Array.for_all (fun w -> w = 0) need_mask then []
  else begin
    let physically_adjacent a =
      match config.layout with
      | None -> true
      | Some (placement, radius) -> Layout.distance placement site a <= radius
    in
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
        let g = Fault_sim.good_word good a bi in
        if (g lxor need_val.(bi)) land need_mask.(bi) <> 0 then ok := false;
        incr i
      done;
      !ok
    in
    let candidates = ref [] in
    for a = Netlist.num_nets net - 1 downto 0 do
      if a <> site && physically_adjacent a && carries_needed a then
        candidates := a :: !candidates
    done;
    if Obs.enabled () then Obs.add c_aggressor_screens (List.length !candidates);
    (* Penalty of "site follows a".  An observed failure the hypothesis
       does not reproduce is a miss whether or not the output differs
       at all. *)
    let penalty s =
      (10 * s.Scoring.missed) + s.Scoring.spurious_fail + s.Scoring.spurious_pass
    in
    let ranked =
      List.sort
        (fun (p1, a1) (p2, a2) ->
          match Int.compare p1 p2 with 0 -> Int.compare a1 a2 | c -> c)
        (List.map2
           (fun s a -> (penalty s, a))
           (Scoring.screen_aggressors scorer ~victim:site !candidates)
           !candidates)
    in
    List.filteri (fun i _ -> i < max_aggressors) (List.map snd ranked)
  end

let build_callouts config m scorer chosen covers =
  let cand = Explain.candidates m in
  let members = List.map (fun c -> (c, cand.(c))) chosen in
  let sites = List.sort_uniq compare (List.map (fun (_, f) -> f.Fault_list.site) members) in
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
        let aggressors = infer_aggressors config m scorer site mine covers in
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
   ([Scoring.evaluate_bridges], DESIGN.md §6a): per callout, one base
   sweep of the rest of the multiplet and a flip sweep or two on top of
   it give every hypothesis its held victim (and, for wired kinds,
   aggressor) words — exactly, feedback bridges included, by replaying
   the overlay simulator's capped fixpoint lane by lane — and each
   hypothesis is then scored against that base: a dominant one by
   masking the victim's flip sweep, a wired one by one change sweep,
   instead of a full-circuit overlay resimulation. *)
let validate_bridges config scorer multiplet callouts score =
  if not config.validate then (callouts, score)
  else begin
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
            (Scoring.evaluate_bridges scorer ~rest ~victim:callout.site hyps);
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
     [cover = Exact _] the greedy result then seeds the implicit
     hitting-set loop as an upper bound.  When the loop proves greedy
     minimal it returns the seed list unchanged, so the rest of the
     pipeline — refine, callouts, bridge validation, report — is
     byte-identical to the greedy backend; only a strictly smaller
     proven cover replaces it.  Budget exhaustion falls back to greedy
     with [cover_complete = false] and a warning counter. *)
  let chosen, covers, cover_minimum, cover_complete =
    Obs.phase "cover" (fun () ->
        let chosen, covers = greedy_cover config m in
        match config.cover with
        | Greedy -> (chosen, covers, None, true)
        | Exact node_budget ->
          let r =
            Obs.phase "cover.exact" (fun () ->
                Hitting_set.solve ~node_budget ~max_size:max_multiplet ~covers
                  ~seed:chosen m)
          in
          if not r.Hitting_set.complete then begin
            if Obs.enabled () then Obs.incr c_budget_fallbacks;
            (chosen, covers, None, false)
          end
          else (r.Hitting_set.cover, covers, r.Hitting_set.minimum, true))
  in
  let scorer, (final, score, steps) =
    Obs.phase "refine" @@ fun () ->
    (* One scorer per diagnosis, built by its first user: refine, the
       aggressor screens and bridge validation all score on it. *)
    let scorer = Scoring.create (Explain.session m) (Explain.datalog m) in
    ( scorer,
      if config.validate && chosen <> [] then refine m scorer chosen covers
      else
        let faults = List.map (fun c -> (Explain.candidates m).(c)) chosen in
        (chosen, Scoring.evaluate_multiplet scorer faults, 0) )
  in
  let cand = Explain.candidates m in
  let multiplet =
    List.sort Fault_list.compare_fault (List.map (fun c -> cand.(c)) final)
  in
  let callouts =
    Obs.phase "callouts" (fun () -> build_callouts config m scorer final covers)
  in
  let callouts, score =
    Obs.phase "validate-bridges" (fun () ->
        validate_bridges config scorer multiplet callouts score)
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

(* Slow references the oracles compare the engine against: the scalar
   fault simulator, the one-fault-at-a-time test generation flow, the
   overlay scorer, the brute-force explanation
   matrix, the structural seed pool, the scalar signature fill, the
   per-aggressor bridge screen, the cover pass that probes every move
   every round and the whole-matrix exact cover.  Each one is the simplest correct computation of its
   quantity — whole-block overlay resimulation, or the per-fault
   per-block scalar sweep — and shares no kernel code with the batched
   simulator under test. *)

(* --- Datalogs ---------------------------------------------------------- *)

(* The datalog of [(pattern, failing POs)] entries, through its text
   form. *)
let datalog ~npatterns ~npos entries =
  Datalog.of_text ~npatterns ~npos
    (String.concat ""
       (List.map
          (fun (p, pos) ->
            Printf.sprintf "fail %d :%s\n" p
              (String.concat "" (List.map (Printf.sprintf " %d") pos)))
          entries))

(* --- Netlist and fault structure ------------------------------------- *)

(* A fault's class representative, read off the table
   [Fault_list.representative_indices] returns: apply it to the table
   once and the result to each fault. *)
let representative_of reps (f : Fault_list.fault) =
  let r = reps.((2 * f.site) + Bool.to_int f.stuck) in
  { Fault_list.site = r / 2; stuck = r mod 2 = 1 }

(* The nets that read [n], ascending: its slice of the fanout CSR. *)
let fanout net n =
  let off = Netlist.fanout_offsets net in
  Array.sub (Netlist.fanout_csr net) off.(n) (off.(n + 1) - off.(n))

(* [(fanin_cone net n).(m)] iff [m] is in the transitive fanin of [n],
   [n] included. *)
let fanin_cone net root =
  let seen = Array.make (Netlist.num_nets net) false in
  let rec visit n =
    if not seen.(n) then begin
      seen.(n) <- true;
      Array.iter visit (Netlist.fanin net n)
    end
  in
  visit root;
  seen

(* --- Scalar fault simulator ------------------------------------------ *)

(* Event-driven single-block fault simulation: one fault's difference
   word is propagated through its fanout cone level by level, one block
   at a time.  [delta] holds faulty XOR good for every net known to
   differ; [touched] lists those nets for an O(|cone|) reset. *)
type scalar = {
  net : Netlist.t;
  reach : Po_reach.t;
  pos : int array;
  reached : int array; (* the injection site's reachable PO positions *)
  delta : int array;
  queued : bool array;
  bucket : int array array; (* per level; capacity = nets at that level *)
  bucket_len : int array;
  touched : int array;
  mutable ntouched : int;
}

let scalar ?reach net =
  let n = Netlist.num_nets net in
  let depth = Netlist.depth net in
  let counts = Array.make (depth + 1) 0 in
  Array.iter (fun l -> counts.(l) <- counts.(l) + 1) (Netlist.level_array net);
  {
    net;
    reach = (match reach with Some r -> r | None -> Po_reach.compute net);
    pos = Netlist.pos net;
    reached = Array.make (max 1 (Netlist.num_pos net)) 0;
    delta = Array.make n 0;
    queued = Array.make n false;
    bucket = Array.map (fun c -> Array.make (max 1 c) 0) counts;
    bucket_len = Array.make (depth + 1) 0;
    touched = Array.make (max 1 n) 0;
    ntouched = 0;
  }

(* Faulty-machine gate evaluation: operand [i] is
   [good.(src) lxor delta.(src)] over the gate's CSR fanin slice.  Only
   reachable from fanout edges, so the driver is never an Input/Const. *)
let eval_faulty kind (good : int array) (delta : int array) (fanin : int array) lo hi =
  let v i = good.(fanin.(i)) lxor delta.(fanin.(i)) in
  let fold op =
    let acc = ref (v lo) in
    for i = lo + 1 to hi - 1 do
      acc := op !acc (v i)
    done;
    !acc
  in
  match kind with
  | Gate.Buf -> v lo
  | Gate.Not -> lnot (v lo)
  | Gate.And -> fold ( land )
  | Gate.Nand -> lnot (fold ( land ))
  | Gate.Or -> fold ( lor )
  | Gate.Nor -> lnot (fold ( lor ))
  | Gate.Xor -> fold ( lxor )
  | Gate.Xnor -> lnot (fold ( lxor ))
  | Gate.Input | Gate.Const _ ->
    invalid_arg "Reference.eval_faulty: unexpected gate in fanout cone"

let enqueue s m =
  if not s.queued.(m) then begin
    s.queued.(m) <- true;
    let l = (Netlist.level_array s.net).(m) in
    s.bucket.(l).(s.bucket_len.(l)) <- m;
    s.bucket_len.(l) <- s.bucket_len.(l) + 1
  end

(* Propagate the difference [d0] injected at [site]; fanout levels are
   strictly greater than a gate's own, so a frontier never grows while
   it is drained. *)
let propagate s ~good ~site d0 =
  for i = 0 to s.ntouched - 1 do
    s.delta.(s.touched.(i)) <- 0
  done;
  s.delta.(site) <- d0;
  s.touched.(0) <- site;
  s.ntouched <- 1;
  let net = s.net in
  let kinds = Netlist.kinds net in
  let fi = Netlist.fanin_csr net and fi_off = Netlist.fanin_offsets net in
  let fo = Netlist.fanout_csr net and fo_off = Netlist.fanout_offsets net in
  for e = fo_off.(site) to fo_off.(site + 1) - 1 do
    enqueue s fo.(e)
  done;
  for lvl = 0 to Array.length s.bucket - 1 do
    let len = s.bucket_len.(lvl) in
    s.bucket_len.(lvl) <- 0;
    for i = 0 to len - 1 do
      let m = s.bucket.(lvl).(i) in
      s.queued.(m) <- false;
      let faulty = eval_faulty kinds.(m) good s.delta fi fi_off.(m) fi_off.(m + 1) in
      let d = faulty lxor good.(m) in
      let old = s.delta.(m) in
      if old = 0 && d <> 0 then begin
        s.touched.(s.ntouched) <- m;
        s.ntouched <- s.ntouched + 1
      end;
      if d <> old then begin
        s.delta.(m) <- d;
        for e = fo_off.(m) to fo_off.(m + 1) - 1 do
          enqueue s fo.(e)
        done
      end
    done
  done

(* Inject the error word [delta] at [site] against the block whose good
   words are [good] (live bits [0 .. width-1]): [f po_position diff_word]
   for every PO whose masked diff word is non-zero, ascending.  A zero
   injected delta or a site that reaches no PO propagates nothing. *)
let iter_po_diffs_delta s ~good ~width ~site ~delta f =
  let mask = Logic.mask_of_width width in
  let d0 = delta land mask in
  if d0 <> 0 && Po_reach.num_reachable s.reach site > 0 then begin
    propagate s ~good ~site d0;
    for i = 0 to Po_reach.reachable_into s.reach site s.reached - 1 do
      let oi = s.reached.(i) in
      let w = s.delta.(s.pos.(oi)) land mask in
      if w <> 0 then f oi w
    done
  end

let iter_po_diffs s ~good ~width ~site ~stuck f =
  let stuck_word = if stuck then Logic.ones else 0 in
  iter_po_diffs_delta s ~good ~width ~site ~delta:(stuck_word lxor good.(site)) f

let po_diffs s ~good ~width ~site ~stuck =
  let out = ref [] in
  iter_po_diffs s ~good ~width ~site ~stuck (fun oi d -> out := (oi, d) :: !out);
  List.rev !out

(* Bit [k] set iff some PO differs on pattern [k] of the block. *)
let detects s ~good ~width ~site ~stuck =
  let acc = ref 0 in
  iter_po_diffs s ~good ~width ~site ~stuck (fun _ d -> acc := !acc lor d);
  !acc

(* Per PO position, a bit per pattern set iff that PO differs from the
   good machine; [?goods] supplies every block's good words (in
   [Pattern.blocks] order) instead of simulating them. *)
let signature s ?goods pats ~site ~stuck =
  let npat = Pattern.count pats in
  let sig_ = Array.init (Netlist.num_pos s.net) (fun _ -> Bitvec.create npat) in
  List.iteri
    (fun bi (block : Pattern.block) ->
      let good =
        match goods with Some g -> g.(bi) | None -> Logic_sim.simulate_block s.net block
      in
      iter_po_diffs s ~good ~width:block.width ~site ~stuck (fun oi d ->
          Logic.iter_bits d (fun k -> Bitvec.set sig_.(oi) (block.base + k) true)))
    (Pattern.blocks pats);
  sig_

(* --- Test generation ------------------------------------------------- *)

(* [Tpg.generate] one fault at a time, crediting detections through the
   scalar simulator: random word-sized slabs until one credits nothing,
   then rounds of PODEM runs, one per fault still short of [detections]
   and not yet proven untestable or aborted, in fault order, each test
   credited to its fault and to the survivors it detects.  A vector
   already in the set (or earlier in its slab) credits nothing, and a
   test equal to one is dropped, its fault going on.  Attempt [a]
   of fault [i] fills with [Podem.run]'s default at [a = 0] and with the
   flow's keyed seed after.  Returns the report and the summed work of
   every run. *)
let tpg_generate ?(seed = 1) ?(backtrack_limit = 512) ?(detections = 1) net =
  let n = detections in
  let budget = n * Tpg.random_budget in
  let s = scalar net in
  let faults = Array.of_list (Fault_list.representatives (Fault_list.collapse net)) in
  let nfaults = Array.length faults in
  let npis = Netlist.num_pis net in
  let counts = Array.make nfaults 0 in
  (* The vectors in the set so far; only a vector not among them
     credits.  [fresh.(p)]: pattern [p] of [pats] credits. *)
  let set = ref [] in
  let credit ?(skip = -1) pats fresh =
    let gained = ref 0 in
    List.iter
      (fun (block : Pattern.block) ->
        let good = Logic_sim.simulate_block net block in
        Array.iteri
          (fun i (f : Fault_list.fault) ->
            if i <> skip && counts.(i) < n then begin
              let w = detects s ~good ~width:block.width ~site:f.site ~stuck:f.stuck in
              let hits = ref 0 in
              for k = 0 to block.width - 1 do
                if (w lsr k) land 1 = 1 && fresh.(block.base + k) then incr hits
              done;
              let add = min (n - counts.(i)) !hits in
              counts.(i) <- counts.(i) + add;
              gained := !gained + add
            end)
          faults)
      (Pattern.blocks pats);
    !gained
  in
  let rng = Rng.create seed in
  let kept = ref [] in
  let continue = ref true in
  let used = ref 0 in
  while !continue && !used < budget do
    let count = min Bitvec.word_bits (budget - !used) in
    let pats = Pattern.random rng ~npis ~count in
    used := !used + Pattern.count pats;
    let vectors = List.init count (Pattern.pattern pats) in
    let fresh =
      Array.of_list
        (List.mapi
           (fun p v -> not (List.mem v !set || List.mem v (List.filteri (fun q _ -> q < p) vectors)))
           vectors)
    in
    if credit pats fresh > 0 then begin
      set := List.rev_append vectors !set;
      kept := pats :: !kept
    end
    else continue := false
  done;
  let random_pats =
    match !kept with
    | [] -> Pattern.of_list ~npis []
    | l -> List.fold_left Pattern.append (List.hd l) (List.tl l)
  in
  let attempts = 4 * n in
  let stopped = Array.make nfaults false in
  let untestable = ref 0 in
  let aborted = ref 0 in
  let extra = ref [] in
  let work = ref Podem.no_work in
  let podem = Podem.create net in
  for a = 0 to attempts - 1 do
    Array.iteri
      (fun i f ->
        if counts.(i) < n && not stopped.(i) then begin
          let fill_seed =
            if a = 0 then None
            else
              Some (Rng.int (Rng.create ((((seed * nfaults) + i) * attempts) + a)) max_int)
          in
          let result, w = Podem.run ~backtrack_limit ?fill_seed podem f in
          work := Podem.add_work !work w;
          match result with
          | Podem.Untestable ->
            stopped.(i) <- true;
            incr untestable
          | Podem.Aborted ->
            stopped.(i) <- true;
            incr aborted
          | Podem.Test pattern ->
            if not (List.mem pattern !set) then begin
              set := pattern :: !set;
              extra := pattern :: !extra;
              counts.(i) <- counts.(i) + 1;
              ignore (credit ~skip:i (Pattern.of_list ~npis [ pattern ]) [| true |] : int)
            end
        end)
      faults
  done;
  let ndet = Array.fold_left (fun acc c -> acc + Bool.to_int (c >= n)) 0 counts in
  ( {
      Tpg.patterns = Pattern.append random_pats (Pattern.of_list ~npis (List.rev !extra));
      total_faults = nfaults;
      detected = ndet;
      untestable = !untestable;
      aborted = !aborted;
      coverage = Stats.ratio ndet (nfaults - !untestable);
    },
    !work )

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
    explained := !explained + Bitvec.popcount_word (predicted land obs);
    missed := !missed + Bitvec.popcount_word (obs land lnot predicted);
    let spurious = predicted land lnot obs in
    spurious_fail := !spurious_fail + Bitvec.popcount_word (spurious land !fail_mask);
    spurious_pass :=
      !spurious_pass + Bitvec.popcount_word (spurious land lnot !fail_mask land mask)
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
        (fanin_cone net pos.(ob.po)))
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

(* A pattern set's blocks and their good words, block-major: the
   reference the scalar sweeps read. *)
type good = { blocks : Pattern.block array; goods : Logic_sim.net_values array }

let good net pats =
  let blocks = Array.of_list (Pattern.blocks pats) in
  { blocks; goods = Array.map (Logic_sim.simulate_block net) blocks }

(* Triples of one fault over the whole set in the canonical order
   (blocks ascending, POs ascending within a block): one scalar cone
   walk per block. *)
let signature_triples sim g ~site ~stuck =
  let acc = ref [] in
  Array.iteri
    (fun bi (block : Pattern.block) ->
      iter_po_diffs sim ~good:g.goods.(bi) ~width:block.width ~site ~stuck (fun oi d ->
          acc := d :: oi :: bi :: !acc))
    g.blocks;
  Array.of_list (List.rev !acc)

(* One key's triples, looked up as a diagnosis looks up a batch
   ([Sig_cache.missing], then [decode]); [None] when the arena lacks
   it. *)
let cached c k =
  if Sig_cache.missing c [| k |] <> [||] then None
  else begin
    let b = Sig_cache.buffer () in
    Sig_cache.decode c k b;
    Some (Array.sub b.data 0 b.len)
  end

(* [cached], filling a miss with the scalar triples. *)
let lookup c sim g ~site ~stuck =
  let k = Sig_cache.key ~site ~stuck in
  match cached c k with
  | Some triples -> triples
  | None ->
    let triples = signature_triples sim g ~site ~stuck in
    Sig_cache.store c [| k |] [| triples |];
    triples

(* --- Aggressor screens ---------------------------------------------- *)

(* The oracle of [Scoring.screen_aggressors]: one sweep per aggressor
   from the good machine, the victim held at [good(a)], its triples
   scored as a signature. *)
let screen_per_aggressor session dlog ~victim aggressors =
  let blocks = Session.blocks session in
  let good = Session.good session and nb = Array.length blocks in
  let b = Session.simulator session in
  let words = Datalog.observed_words dlog blocks in
  List.map
    (fun a ->
      let triples = ref [] in
      Fault_sim.sweep b
        [ (victim, Fault_sim.Held (Array.init nb (Fault_sim.good_word good a))) ]
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

(* --- Exact cover ------------------------------------------------------ *)

(* The whole-matrix branch and bound that [Hitting_set] is checked
   against: it transposes every candidate's cover up front, branches on
   the uncovered observation with the fewest explainers, and enumerates
   up to [max_solutions] minimum covers of at most [max_size] members
   within [node_budget] nodes.  With [upper_bound] only covers strictly
   smaller than it count, so [minimum = None] with [complete = true]
   proves the bound minimum.  [multiplets] are sorted candidate lists;
   empty when some observation has no explainer. *)
type exact_cover = {
  multiplets : Fault_list.fault list list;
  minimum : int option;
  complete : bool;  (* false when [node_budget] ran out *)
  nodes : int;
}

let exact_cover ?(max_size = 8) ?(max_solutions = 16) ?(node_budget = 200_000)
    ?upper_bound m =
  let candidates = Explain.candidates m in
  let ncand = Array.length candidates in
  let nobs = Array.length (Explain.observations m) in
  if nobs = 0 then { multiplets = [ [] ]; minimum = Some 0; complete = true; nodes = 0 }
  else begin
    let covers = Array.init ncand (fun c -> Explain.covers m c) in
    (* Candidates able to explain each observation. *)
    let per_obs = Array.make nobs [] in
    for c = ncand - 1 downto 0 do
      Bitvec.iter_set covers.(c) (fun oi -> per_obs.(oi) <- c :: per_obs.(oi))
    done;
    if Array.exists (fun l -> l = []) per_obs then
      { multiplets = []; minimum = None; complete = true; nodes = 0 }
    else begin
      (* With an upper bound only covers strictly smaller than it are
         enumerated: an empty result then proves the bound (the caller's
         known cover) is already minimum. *)
      let ub = Option.value upper_bound ~default:max_int in
      let best = ref (min (max_size + 1) ub) in
      let solutions = Hashtbl.create 16 in
      let nodes = ref 0 in
      let complete = ref true in
      let record chosen =
        let size = List.length chosen in
        if size <= max_size && size < ub then begin
          if size < !best then begin
            best := size;
            Hashtbl.reset solutions
          end;
          if size = !best && Hashtbl.length solutions < max_solutions then begin
            let key = List.sort compare chosen in
            Hashtbl.replace solutions key ()
          end
        end
      in
      (* Branch on the uncovered observation with the fewest explainers
         (most constrained first), trying each of its candidates. *)
      let rec go uncovered chosen =
        incr nodes;
        if !nodes > node_budget then complete := false
        else if Bitvec.is_empty uncovered then record chosen
        else if List.length chosen + 1 <= !best then begin
          let pivot = ref (-1) in
          let pivot_width = ref max_int in
          Bitvec.iter_set uncovered (fun oi ->
              let width = List.length per_obs.(oi) in
              if width < !pivot_width then begin
                pivot_width := width;
                pivot := oi
              end);
          List.iter
            (fun c ->
              if (not (List.mem c chosen)) && !complete then begin
                let remaining = Bitvec.copy uncovered in
                Bitvec.diff_into ~dst:remaining covers.(c);
                go remaining (c :: chosen)
              end)
            per_obs.(!pivot)
        end
      in
      let all = Bitvec.create nobs in
      Bitvec.fill all true;
      go all [];
      let multiplets =
        Hashtbl.fold (fun key () acc -> List.map (fun c -> candidates.(c)) key :: acc)
          solutions []
        |> List.sort compare
      in
      let minimum = if multiplets = [] then None else Some !best in
      { multiplets; minimum; complete = !complete; nodes = !nodes }
    end
  end

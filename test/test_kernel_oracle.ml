(* End-to-end oracles for the allocation-free simulation kernel: every
   fast path (event-driven propagation with PO-reachability screening,
   the direct-indexed [Explain.build_session] accumulators, precomputed-goods
   signatures) must agree bit for bit with a brute-force overlay
   resimulation.  That reference shares one piece with the kernel: its
   good machine and overlay words come from [Logic_sim], that is from
   [Gate.eval], as the kernel's goods do.  So the session's good
   machine is itself checked, pattern by pattern, against
   [Scalar_logic.eval_bool], which shares no code with [Gate.eval]. *)

(* [net] with a VDD and a GND cell appended and wired into three gate
   fanins in place of the nets they read, so the kernels evaluate
   through tied cells (the [Const] arms of [Gate.eval]) and fault sites
   include nets no pattern can toggle.  The original nets keep their
   ids. *)
let tied ~seed net =
  let rng = Rng.create (seed + 97) in
  let n = Netlist.num_nets net in
  let vdd = n and gnd = n + 1 in
  let fanins = Array.init n (Netlist.fanin net) in
  let gates = List.filter (fun m -> fanins.(m) <> [||]) (List.init n Fun.id) in
  for _ = 1 to 3 do
    let f = fanins.(List.nth gates (Rng.int rng (List.length gates))) in
    let tie = if Rng.bool rng then vdd else gnd in
    if not (Array.mem tie f) then f.(Rng.int rng (Array.length f)) <- tie
  done;
  Netlist.make
    ~names:(Array.append (Array.init n (Netlist.name net)) [| "tie_vdd"; "tie_gnd" |])
    ~kinds:(Array.append (Netlist.kinds net) [| Gate.Const true; Gate.Const false |])
    ~fanins:(Array.append fanins [| [||]; [||] |])
    ~pos:(Netlist.pos net)

let random_problem seed multiplicity =
  let gates = 40 + (seed mod 100) in
  let net = tied ~seed (Generators.random_logic ~gates ~pis:6 ~pos:5 ~seed) in
  let rng = Rng.create (seed * 7) in
  let pats = Pattern.random rng ~npis:6 ~count:80 in
  let expected = Logic_sim.responses net pats in
  let k = min multiplicity (max 1 (Injection.capacity net / 4)) in
  let defects = Injection.random_defects rng net Injection.default_mix k in
  let observed = Injection.observed_responses net pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  (net, pats, dlog)

(* --- The good machine against a scalar evaluation ------------------- *)

(* Every word of [Session.good], masked to its block's live patterns,
   holds the values [Scalar_logic.eval_bool] gives net by net in
   topological order, one pattern at a time.  The tied cells put both
   [Const] arms of [Gate.eval] under test. *)
let prop_good_matches_scalar =
  QCheck.Test.make ~name:"Session.good = per-pattern Scalar_logic.eval_bool (tied cells)"
    ~count:10
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let gates = 40 + (seed mod 100) in
      let net = tied ~seed (Generators.random_logic ~gates ~pis:6 ~pos:5 ~seed) in
      let pats = Pattern.random (Rng.create (seed * 7)) ~npis:6 ~count:80 in
      let session = Session.create net pats in
      let good = Session.good session in
      let value = Array.make (Netlist.num_nets net) false in
      let ok = ref true in
      Array.iteri
        (fun bi (b : Pattern.block) ->
          for k = 0 to b.width - 1 do
            Array.iteri
              (fun i pi -> value.(pi) <- (Pattern.pattern pats (b.base + k)).(i))
              (Netlist.pis net);
            Array.iter
              (fun n ->
                if not (Netlist.is_pi net n) then
                  value.(n) <-
                    Scalar_logic.eval_bool (Netlist.kind net n)
                      (Array.to_list (Array.map (Array.get value) (Netlist.fanin net n))))
              (Netlist.topo_order net);
            Array.iteri
              (fun n v ->
                let w = Fault_sim.good_word good n bi in
                if ((w lsr k) land 1 = 1) <> v then ok := false)
              value
          done)
        (Session.blocks session);
      !ok)

(* --- Scalar reference against overlay resimulation ------------------ *)

(* Unlike the stuck-at oracle in [Test_fault_sim], this drives
   [Reference.iter_po_diffs_delta] with an arbitrary injected error
   word: the single-block reference for a held-site sweep, which the
   aggressor screens in [Noassume] run, must itself match a
   whole-block resimulation. *)
let prop_delta_injection_matches_overlay =
  QCheck.Test.make
    ~name:"iter_po_diffs_delta matches overlay resimulation (random delta)"
    ~count:25
    QCheck.(pair (int_range 1 100_000) (int_range 0 0x3FFFFFF))
    (fun (seed, delta_bits) ->
      let net = Generators.random_logic ~gates:60 ~pis:6 ~pos:4 ~seed in
      let pats = Pattern.random (Rng.create seed) ~npis:6 ~count:50 in
      let sim = Reference.scalar net in
      let site = Rng.int (Rng.create (seed + 1)) (Netlist.num_nets net) in
      List.for_all
        (fun (block : Pattern.block) ->
          let good = Logic_sim.simulate_block net block in
          let mask = Logic.mask_of_width block.width in
          let delta = delta_bits land mask in
          (* Reference: force the faulty word on the site and resimulate
             the whole block from scratch. *)
          let faulty_word = good.(site) lxor delta in
          let overlay =
            Logic_sim.simulate_block_overlay net block
              [
                {
                  Logic_sim.target = site;
                  behave =
                    (fun ~computed:_ ~value_of:_ ~driven_of:_ ~base:_ -> faulty_word);
                };
              ]
          in
          let got = Array.make (Netlist.num_pos net) 0 in
          Reference.iter_po_diffs_delta sim ~good ~width:block.width ~site ~delta
            (fun oi w -> got.(oi) <- w);
          let ok = ref true in
          Array.iteri
            (fun oi po ->
              let expect = (overlay.(po) lxor good.(po)) land mask in
              if got.(oi) <> expect then ok := false)
            (Netlist.pos net);
          !ok)
        (Pattern.blocks pats))

(* --- Explain.build_session against a brute-force reference ------- *)

(* Every accumulator of a built matrix against [Reference.naive_matrices]
   over its own candidate pool. *)
let matches_naive net pats dlog m =
  let candidates = Explain.candidates m in
  let covers, matched, spurious, mispredict_pass =
    Reference.naive_matrices net pats dlog candidates
  in
  let nfp = Array.length (Explain.failing m) in
  let ok = ref true in
  Array.iteri
    (fun c _ ->
      if not (Bitvec.equal (Explain.covers m c) covers.(c)) then ok := false;
      if Explain.mispredict_pass m c <> mispredict_pass.(c) then ok := false;
      if Explain.mispredict_fail m c <> Array.fold_left ( + ) 0 spurious.(c) then ok := false;
      for fp = 0 to nfp - 1 do
        if
          Explain.matched m c fp <> matched.(c).(fp)
          || Explain.spurious_any m c fp <> (spurious.(c).(fp) > 0)
        then ok := false
      done)
    candidates;
  !ok

let prop_explain_matches_naive =
  QCheck.Test.make
    ~name:"Explain.build_session matches brute-force overlay reference" ~count:10
    QCheck.(pair (int_range 1 100_000) (int_range 1 3))
    (fun (seed, multiplicity) ->
      let net, pats, dlog = random_problem seed multiplicity in
      if Datalog.num_failing dlog = 0 then true
      else
        With_domains.run 1 (fun () ->
            matches_naive net pats dlog (Explain.build_session (Session.create net pats) dlog)))

(* --- Explain's layout against triples, brute force ----------------- *)

(* Every accessor of a built matrix, recomputed bit by bit from each
   candidate's own scalar triples ([Reference.signature_triples], so
   class members are checked against their own simulation, not the
   shared row): a covered observation is found by scanning the
   observation list, and counts come from walking every set bit.
   Returns whether all accessors agree, plus which corner cases the
   matrix exercised: a candidate with no triples at all, and a failing
   pattern with several failing outputs. *)
let layout_matches_triples net session dlog m =
  let sim = Reference.scalar net in
  let good = Reference.good net (Session.patterns session) in
  let blocks = Session.blocks session in
  let observations = Explain.observations m in
  let failing = Explain.failing m in
  let nfp = Array.length failing in
  let fp_of p =
    let r = ref (-1) in
    Array.iteri (fun i q -> if q = p then r := i) failing;
    !r
  in
  let obs_index p oi =
    let r = ref (-1) in
    Array.iteri
      (fun i (ob : Datalog.observation) -> if ob.pattern = p && ob.po = oi then r := i)
      observations;
    !r
  in
  let nfail_pos = Array.map (fun p -> List.length (Datalog.failing_pos dlog p)) failing in
  let ok = ref true and empty_row = ref false in
  Array.iteri
    (fun c (f : Fault_list.fault) ->
      let triples = Reference.signature_triples sim good ~site:f.site ~stuck:f.stuck in
      if triples = [||] then empty_row := true;
      let covers = Bitvec.create (Array.length observations) in
      let matched = Array.make nfp 0 and spurious = Array.make nfp 0 in
      let pass_predicted = Hashtbl.create 16 in
      for t = 0 to (Array.length triples / 3) - 1 do
        let bi = triples.(3 * t) and oi = triples.((3 * t) + 1) and w = triples.((3 * t) + 2) in
        for k = 0 to blocks.(bi).Pattern.width - 1 do
          if (w lsr k) land 1 = 1 then begin
            let p = blocks.(bi).Pattern.base + k in
            let fp = fp_of p in
            if fp < 0 then Hashtbl.replace pass_predicted p ()
            else
              match obs_index p oi with
              | -1 -> spurious.(fp) <- spurious.(fp) + 1
              | i ->
                Bitvec.set covers i true;
                matched.(fp) <- matched.(fp) + 1
          end
        done
      done;
      if
        (not (Bitvec.equal (Explain.covers m c) covers))
        || Explain.mispredict_fail m c <> Array.fold_left ( + ) 0 spurious
        || Explain.mispredict_pass m c <> Hashtbl.length pass_predicted
      then ok := false;
      for fp = 0 to nfp - 1 do
        if
          Explain.matched m c fp <> matched.(fp)
          || Explain.spurious_any m c fp <> (spurious.(fp) > 0)
          || Explain.exact m c fp <> (matched.(fp) = nfail_pos.(fp) && spurious.(fp) = 0)
        then ok := false
      done)
    (Explain.candidates m);
  (!ok, !empty_row, Array.exists (fun n -> n > 1) nfail_pos)

(* A random tester datalog: each pattern fails with probability 1/3, on
   a random non-empty subset of the outputs — several outputs per
   pattern as often as not, and no relation to any defect, so matched
   and spurious bits mix freely in every diff word. *)
let random_datalog rng ~npatterns ~npos =
  let entries =
    List.filter_map
      (fun p ->
        if not (Rng.chance rng (1. /. 3.)) then None
        else
          let pos = List.filter (fun _ -> Rng.bool rng) (List.init npos Fun.id) in
          Some (p, if pos = [] then [ Rng.int rng npos ] else pos))
      (List.init npatterns Fun.id)
  in
  Reference.datalog ~npatterns ~npos entries

(* Pattern counts that are never a multiple of 63, so the last block is
   partial; a lazily filled arena (the build simulates its rows) and a
   prewarmed one (every row decoded) must both agree with the triples.
   Returns the corner cases seen, for the coverage check below. *)
let layout_case seed =
  let rng = Rng.create (seed * 13) in
  let npos = 3 + (seed mod 5) in
  let net = Generators.random_logic ~gates:(30 + (seed mod 90)) ~pis:6 ~pos:npos ~seed in
  let count = 64 + (seed mod 130) in
  let count = if count mod 63 = 0 then count + 1 else count in
  let pats = Pattern.random rng ~npis:6 ~count in
  let dlog = random_datalog rng ~npatterns:count ~npos:(Netlist.num_pos net) in
  let arena prewarm =
    With_domains.run 1 @@ fun () ->
    let session = Session.create net pats in
    if prewarm then ignore (Session.prewarm session : int);
    layout_matches_triples net session dlog (Explain.build_session session dlog)
  in
  let ok_lazy, empty_lazy, multi = arena false in
  let ok_warm, empty_warm, _ = arena true in
  (ok_lazy && ok_warm, empty_lazy || empty_warm, multi)

let prop_layout_matches_triples =
  QCheck.Test.make
    ~name:"Explain layout (partial block, multi-PO, lazy and prewarmed) = triples"
    ~count:20 QCheck.(int_range 1 100_000)
    (fun seed ->
      let ok, _, _ = layout_case seed in
      ok)

(* The corner cases the property is there for must actually occur: over
   a fixed run of seeds some candidate has no triples (its row decodes
   empty) and some failing pattern fails several outputs. *)
let test_layout_corner_cases () =
  let cases = List.map layout_case (List.init 12 (fun i -> 1 + (i * 7919))) in
  Alcotest.(check bool) "every case agrees" true (List.for_all (fun (ok, _, _) -> ok) cases);
  Alcotest.(check bool) "some row has no triples" true
    (List.exists (fun (_, empty, _) -> empty) cases);
  Alcotest.(check bool) "some pattern fails several outputs" true
    (List.exists (fun (_, _, multi) -> multi) cases)

(* --- signature ~goods ----------------------------------------------- *)

(* One fault's triples expanded into per-PO signatures: bit [p] of PO
   [oi]'s vector is set iff that PO differs from the good machine on
   pattern [p]. *)
let signature_of_triples session triples =
  let blocks = Session.blocks session in
  let npatterns = Pattern.count (Session.patterns session) in
  let npos = Netlist.num_pos (Session.netlist session) in
  let signature = Array.init npos (fun _ -> Bitvec.create npatterns) in
  let i = ref 0 in
  while !i < Array.length triples do
    let bi = triples.(!i) and oi = triples.(!i + 1) and d = triples.(!i + 2) in
    let base = blocks.(bi).Pattern.base in
    Logic.iter_bits d (fun bit -> Bitvec.set signature.(oi) (base + bit) true);
    i := !i + 3
  done;
  signature

(* The scalar signature with precomputed goods, recomputing them, and
   the batch kernel's triples expanded by [Session] all agree. *)
let prop_signature_goods_equivalent =
  QCheck.Test.make
    ~name:"signature ~goods = signature recomputing goods" ~count:25
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let net = Generators.random_logic ~gates:50 ~pis:6 ~pos:4 ~seed in
      let pats = Pattern.random (Rng.create (seed + 3)) ~npis:6 ~count:70 in
      let sim = Reference.scalar net in
      let goods =
        Array.of_list
          (List.map (Logic_sim.simulate_block net) (Pattern.blocks pats))
      in
      let site = Rng.int (Rng.create (seed + 4)) (Netlist.num_nets net) in
      let session = Session.create net pats in
      let batch = Session.simulator session in
      List.for_all
        (fun stuck ->
          let a = Reference.signature sim ~goods pats ~site ~stuck in
          let b = Reference.signature sim pats ~site ~stuck in
          let triples = ref [] in
          Fault_sim.simulate_batch batch ~n:1
            ~fault:(fun _ -> (site, stuck))
            (fun _ bi oi w -> triples := w :: oi :: bi :: !triples);
          let triples = Array.of_list (List.rev !triples) in
          let k = signature_of_triples session triples in
          Array.for_all2 Bitvec.equal a b && Array.for_all2 Bitvec.equal a k)
        [ false; true ])

(* --- PPSFP batch pass against the scalar sweep ---------------------- *)

(* [simulate_batch] must produce, fault by fault, exactly the masked
   diff words of the per-fault per-block scalar sweep — the property
   that makes batch-filled [Sig_cache] rows replayable by either path.
   150 patterns gives two full blocks plus a partial one, so the tail
   mask is exercised. *)
let prop_simulate_batch_matches_scalar =
  QCheck.Test.make
    ~name:"simulate_batch matches per-fault per-block scalar sweep" ~count:20
    QCheck.(pair (int_range 1 100_000) (int_range 1 17))
    (fun (seed, nfaults) ->
      let gates = 40 + (seed mod 120) in
      let net = tied ~seed (Generators.random_logic ~gates ~pis:7 ~pos:5 ~seed) in
      let pats = Pattern.random (Rng.create (seed + 11)) ~npis:7 ~count:150 in
      let blocks = Array.of_list (Pattern.blocks pats) in
      let goods = Array.map (Logic_sim.simulate_block net) blocks in
      let sim = Reference.scalar net in
      let b = Fault_sim.create net (Fault_sim.good net blocks) in
      let rng = Rng.create (seed + 23) in
      let faults =
        Array.init nfaults (fun _ ->
            (Rng.int rng (Netlist.num_nets net), Rng.int rng 2 = 1))
      in
      let npos = Netlist.num_pos net in
      let nb = Array.length blocks in
      let got = Array.make_matrix nfaults (nb * npos) 0 in
      Fault_sim.simulate_batch b ~n:nfaults
        ~fault:(fun i -> faults.(i))
        (fun i bi oi w -> got.(i).((bi * npos) + oi) <- w);
      let want = Array.make_matrix nfaults (nb * npos) 0 in
      Array.iteri
        (fun i (site, stuck) ->
          Array.iteri
            (fun bi (block : Pattern.block) ->
              Reference.iter_po_diffs sim ~good:goods.(bi) ~width:block.width
                ~site ~stuck (fun oi w -> want.(i).((bi * npos) + oi) <- w))
            blocks)
        faults;
      got = want)

(* The arbitrary-delta injection the aggressor screens run: a site held
   at [good lxor delta] and swept from the good machine, against one
   scalar sweep per block — on a fresh simulator, and on one whose
   frame held a multiplet and was then emptied. *)
let prop_held_sweep_matches_scalar =
  QCheck.Test.make
    ~name:"sweep of a held site matches per-block iter_po_diffs_delta"
    ~count:20
    QCheck.(pair (int_range 1 100_000) (int_range 0 max_int))
    (fun (seed, delta_seed) ->
      let net = tied ~seed (Generators.random_logic ~gates:70 ~pis:6 ~pos:4 ~seed) in
      let pats = Pattern.random (Rng.create (seed + 5)) ~npis:6 ~count:140 in
      let blocks = Array.of_list (Pattern.blocks pats) in
      let goods = Array.map (Logic_sim.simulate_block net) blocks in
      let sim = Reference.scalar net in
      let rng = Rng.create delta_seed in
      let site = Rng.int (Rng.create (seed + 6)) (Netlist.num_nets net) in
      let deltas =
        Array.map (fun _ -> Rng.int rng (1 lsl 30)) blocks
      in
      let npos = Netlist.num_pos net in
      let nb = Array.length blocks in
      let swept b =
        let got = Array.make (nb * npos) 0 in
        Fault_sim.sweep b
          [ (site, Fault_sim.Held (Array.mapi (fun bi g -> g.(site) lxor deltas.(bi)) goods)) ]
          (fun bi oi w -> got.((bi * npos) + oi) <- w);
        got
      in
      let emptied = Fault_sim.create net (Fault_sim.good net blocks) in
      let other = Rng.int rng (Netlist.num_nets net) in
      Fault_sim.hold emptied
        [ (other, Fault_sim.Flip); ((other + 1) mod Netlist.num_nets net, Fault_sim.Stuck true) ]
        (fun _ _ _ -> ());
      Fault_sim.hold emptied [] (fun _ _ _ -> ());
      let want = Array.make (nb * npos) 0 in
      Array.iteri
        (fun bi (block : Pattern.block) ->
          Reference.iter_po_diffs_delta sim ~good:goods.(bi) ~width:block.width
            ~site ~delta:deltas.(bi)
            (fun oi w -> want.((bi * npos) + oi) <- w))
        blocks;
      swept (Fault_sim.create net (Fault_sim.good net blocks)) = want
      && swept emptied = want)

(* --- aggressor screens against per-aggressor sweeps ------------------ *)

let complement = function
  | Gate.And -> Gate.Nand
  | Gate.Nand -> Gate.And
  | Gate.Or -> Gate.Nor
  | Gate.Nor -> Gate.Or
  | Gate.Xor -> Gate.Xnor
  | Gate.Xnor -> Gate.Xor
  | Gate.Not -> Gate.Buf
  | Gate.Buf -> Gate.Not
  | (Gate.Input | Gate.Const _) as k -> k

(* A random circuit (XOR gates, reconvergent fanins) with the screen's
   edge cases built in, and a victim picked by [case]: 0 any net, 1 a
   primary output with no fanout, 2 a gate no output reaches, 3 a
   primary input.  Screening every net of the circuit against the
   victim then covers an all-zero delta (the victim itself), an
   all-ones delta (a complement of the victim, built over its own
   fanins so the victim gains no fanout), uniformly random per-block
   deltas (a primary input no gate reads) and the structured deltas of
   every other net. *)
let screen_problem seed case =
  let rng = Rng.create ((seed * 17) + case) in
  let b = Builder.create () in
  let npis = 6 in
  let pis = Array.init npis (fun i -> Builder.input b (Printf.sprintf "pi%d" i)) in
  let noise = Builder.input b "noise" in
  let ngates = 30 + Rng.int rng 60 in
  let kinds =
    [| Gate.And; Gate.Or; Gate.Nand; Gate.Nor; Gate.Xor; Gate.Xnor; Gate.Not; Gate.Buf |]
  in
  let nets = ref (Array.to_list pis) in
  let read = Hashtbl.create 64 and def = Hashtbl.create 64 in
  for g = 0 to ngates - 1 do
    let avail = Array.of_list !nets in
    let kind = Rng.pick rng kinds in
    let arity = match kind with Gate.Not | Gate.Buf -> 1 | _ -> 2 + Rng.int rng 2 in
    let rec distinct k acc =
      if k = 0 then acc
      else
        let c = avail.(Rng.int rng (Array.length avail)) in
        if List.mem c acc then distinct k acc else distinct (k - 1) (c :: acc)
    in
    let fanins = distinct arity [] in
    List.iter (fun f -> Hashtbl.replace read f ()) fanins;
    let n = Builder.gate b (Printf.sprintf "g%d" g) kind fanins in
    Hashtbl.replace def n (kind, fanins);
    nets := n :: !nets
  done;
  let gates = List.filter (Hashtbl.mem def) !nets in
  let dead = Builder.gate b "dead" Gate.Xor [ pis.(0); pis.(1) ] in
  Hashtbl.replace def dead (Gate.Xor, [ pis.(0); pis.(1) ]);
  let sinks = List.filter (fun n -> not (Hashtbl.mem read n)) gates in
  List.iter (Builder.mark_output b) sinks;
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let victim =
    match case with
    | 0 -> pick !nets
    | 1 -> pick sinks
    | 2 -> dead
    | _ -> pis.(Rng.int rng npis)
  in
  ignore
    (match Hashtbl.find_opt def victim with
     | Some (kind, fanins) -> Builder.gate b "complement" (complement kind) fanins
     | None -> Builder.gate b "complement" Gate.Not [ victim ]
      : Netlist.net);
  let net = Builder.finalize b in
  (* Over 63 patterns, never a multiple: the last block is partial. *)
  let count = 64 + Rng.int rng 150 in
  let count = if count mod Bitvec.word_bits = 0 then count + 1 else count in
  let pats = Pattern.random rng ~npis:(npis + 1) ~count in
  let expected = Logic_sim.responses net pats in
  let defects = Injection.random_defects rng net Injection.default_mix 2 in
  let observed = Injection.observed_responses net pats defects in
  (net, pats, Datalog.of_responses ~expected ~observed, victim, noise)

let prop_screen_matches_per_aggressor =
  QCheck.Test.make
    ~name:"screen_aggressors: flip sweep masked = per-aggressor delta sweeps" ~count:40
    QCheck.(pair (int_range 1 100_000) (int_range 0 3))
    (fun (seed, case) ->
      let net, pats, dlog, victim, noise = screen_problem seed case in
      let session = Session.create net pats in
      let { Reference.goods; _ } = Reference.good net pats in
      let comp = Option.get (Netlist.find net "complement") in
      let nblocks = Array.length goods in
      let last = (Session.blocks session).(nblocks - 1) in
      let aggressors = List.init (Netlist.num_nets net) Fun.id in
      let got =
        Scoring.screen_aggressors (Scoring.create session dlog) ~victim aggressors
      in
      let want = Reference.screen_per_aggressor session dlog ~victim aggressors in
      let live bi = Logic.mask_of_width (Session.blocks session).(bi).Pattern.width in
      (* The cases the circuit was built to hold really hold. *)
      nblocks > 1
      && last.Pattern.width < Bitvec.word_bits
      && Array.for_all Fun.id
           (Array.mapi
              (fun bi g -> (g.(victim) lxor g.(comp)) land live bi = live bi)
              goods)
      && Reference.fanout net noise = [||]
      && (case <> 1 || (Netlist.is_po net victim && Reference.fanout net victim = [||]))
      && (case <> 2 || not (Netlist.is_po net victim))
      && got = want)

(* The screen runs one sweep for its whole aggressor list, none for an
   empty one. *)
let test_screen_one_sweep () =
  let net, pats, dlog, victim, _ = screen_problem 5 0 in
  let session = Session.create net pats in
  let sweeps aggressors =
    let sk = Obs.sink () in
    Obs.with_sink sk (fun () ->
        ignore
          (Scoring.screen_aggressors (Scoring.create session dlog) ~victim aggressors
            : Scoring.score list));
    let c = (Obs.sink_snapshot sk).Obs.counters in
    List.assoc "sim.faults_simulated" c + List.assoc "sim.faults_screened" c
  in
  Alcotest.(check int) "no aggressor, no sweep" 0 (sweeps []);
  Alcotest.(check int) "every net, one sweep" 1
    (sweeps (List.init (Netlist.num_nets net) Fun.id))

(* --- greedy cover against probing every move every round ------------ *)

(* The cover pass rescores only the moves that can still win a round;
   without refinement its choice is the multiplet, which must be the
   one probing every move picks — with and without the misprediction
   discount.  [Noassume]'s cap is fixed; a die that reaches it is
   [test_noassume]'s. *)
let prop_greedy_cover_matches_exhaustive =
  QCheck.Test.make ~name:"greedy cover: lazy rescoring = probing every move" ~count:30
    QCheck.(triple (int_range 1 100_000) (int_range 1 4) bool)
    (fun (seed, multiplicity, tie_break) ->
      let net, pats, dlog = random_problem seed multiplicity in
      let m = Explain.build_session (Session.create net pats) dlog in
      let config = { Noassume.default_config with validate = false; tie_break } in
      let cand = Explain.candidates m in
      let want =
        List.sort Fault_list.compare_fault
          (List.map
             (fun c -> cand.(c))
             (Reference.greedy_cover ~tie_break ~max_multiplet:Noassume.max_multiplet m))
      in
      (Noassume.diagnose_matrix ~config m).Noassume.multiplet = want)

(* --- evaluate_multiplet against the overlay scorer -------------------- *)

(* The multi-site sweep must score a multiplet exactly as a whole-block
   overlay resimulation does.  Odd seeds pin one site at both
   polarities, the byzantine (value-flip) overlay case with its own
   batch code path. *)
let prop_evaluate_multiplet_matches_overlay =
  QCheck.Test.make
    ~name:"evaluate_multiplet: batched = per-block overlay resimulation" ~count:12
    QCheck.(pair (int_range 1 100_000) (int_range 1 3))
    (fun (seed, multiplicity) ->
      let net, pats, dlog = random_problem seed multiplicity in
      let rng = Rng.create (seed + 31) in
      let k = 1 + (seed mod 3) in
      let faults =
        List.init k (fun _ ->
            {
              Fault_list.site = Rng.int rng (Netlist.num_nets net);
              stuck = Rng.int rng 2 = 1;
            })
      in
      let faults =
        if seed mod 2 = 1 then
          let s = Rng.int rng (Netlist.num_nets net) in
          { Fault_list.site = s; stuck = true }
          :: { Fault_list.site = s; stuck = false }
          :: faults
        else faults
      in
      Scoring.evaluate_multiplet (Scoring.create (Session.create net pats) dlog) faults
      = Reference.evaluate_multiplet net pats dlog faults)

(* --- evaluate_bridges against the overlay simulator ----------------- *)

(* The bridge scorer derives held words from a few read sweeps and, for
   bridges that feed back through their own cone, replays the overlay's
   capped fixpoint lane by lane; the reference is one full overlay
   resimulation per hypothesis.  [case] forces the structural relation
   each derivation handles differently: 0 victim and aggressor apart,
   1 aggressor downstream of the victim, 2 aggressor upstream, 3 the
   aggressor also a multiplet site (a wired bridge drops its pin),
   4 a primary input as victim or aggressor. *)
let bridge_kinds = [ Defect.Dominant; Defect.Wired_and; Defect.Wired_or ]

(* Each hypothesis is scored on a fresh scorer, and on one scorer used
   in the order a diagnosis uses it — the victim's aggressor screen,
   then bridge validation twice over the same rest — for [rest] and for
   the empty rest: the second validation finds its rest already held,
   and the sweeps before it must not leak into its reads. *)
let bridges_agree net pats dlog ~rest ~victim ~aggressor =
  let session = Session.create net pats in
  let hyps = List.map (fun kind -> (aggressor, kind)) bridge_kinds in
  let want rest =
    List.map
      (fun kind ->
        Reference.evaluate net pats dlog
          (Scoring.overlay_of_multiplet rest
          @ Defect.overlay_all [ Defect.Bridge { victim; aggressor; kind } ]))
      bridge_kinds
  in
  let sc = Scoring.create session dlog in
  let in_order rest want =
    ignore (Scoring.screen_aggressors sc ~victim [ aggressor ] : Scoring.score list);
    let first = Scoring.evaluate_bridges sc ~rest ~victim hyps in
    let second = Scoring.evaluate_bridges sc ~rest ~victim hyps in
    first = want && second = want
  in
  let want_rest = want rest in
  Scoring.evaluate_bridges (Scoring.create session dlog) ~rest ~victim hyps = want_rest
  && in_order rest want_rest
  && in_order [] (want [])

(* Returns whether every hypothesis agreed, and whether the case's
   relation was reached (a circuit may have no such pair). *)
let bridge_case seed case =
  let gates = 50 + (seed mod 251) in
  let net = tied ~seed (Generators.random_logic ~gates ~pis:7 ~pos:5 ~seed) in
  let rng = Rng.create ((seed * 13) + case) in
  let pats = Pattern.random rng ~npis:7 ~count:150 in
  let expected = Logic_sim.responses net pats in
  let defects = Injection.random_defects rng net Injection.default_mix 2 in
  let observed = Injection.observed_responses net pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  let n = Netlist.num_nets net in
  let pick pred =
    match List.filter pred (List.init n Fun.id) with
    | [] -> None
    | l -> Some (List.nth l (Rng.int rng (List.length l)))
  in
  let strictly cone v x = x <> v && cone.(x) in
  let pair =
    match case with
    | 1 ->
      Option.bind
        (pick (fun v -> Array.length (Reference.fanout net v) > 0))
        (fun v ->
          Option.map (fun a -> (v, a)) (pick (strictly (Netlist.fanout_reach net v) v)))
    | 2 ->
      Option.bind
        (pick (fun v -> not (Netlist.is_pi net v)))
        (fun v ->
          Option.map (fun a -> (v, a)) (pick (strictly (Reference.fanin_cone net v) v)))
    | 0 ->
      Option.bind
        (pick (fun _ -> true))
        (fun v ->
          let down = Netlist.fanout_reach net v and up = Reference.fanin_cone net v in
          Option.map (fun a -> (v, a)) (pick (fun a -> (not down.(a)) && not up.(a))))
    | 4 ->
      let pis = Netlist.pis net in
      let p = pis.(Rng.int rng (Array.length pis)) in
      Option.map
        (fun o -> if seed mod 2 = 0 then (p, o) else (o, p))
        (pick (fun o -> o <> p))
    | _ ->
      Option.bind
        (pick (fun _ -> true))
        (fun v -> Option.map (fun a -> (v, a)) (pick (fun a -> a <> v)))
  in
  match pair with
  | None -> (true, false)
  | Some (victim, aggressor) ->
    (* Rest sites: a mix of single-polarity (held) and both-polarity
       (flipped) pins, never the victim; case 3 pins the aggressor
       too, with a polarity mix of its own. *)
    let site () =
      Option.value ~default:aggressor
        (pick (fun s -> s <> victim && s <> aggressor))
    in
    let pins s =
      match Rng.int rng 3 with
      | 0 -> [ { Fault_list.site = s; stuck = false } ]
      | 1 -> [ { Fault_list.site = s; stuck = true } ]
      | _ ->
        [ { Fault_list.site = s; stuck = true }; { Fault_list.site = s; stuck = false } ]
    in
    let rest =
      List.concat_map (fun _ -> pins (site ())) (List.init (1 + Rng.int rng 3) Fun.id)
    in
    let rest = if case = 3 then pins aggressor @ rest else rest in
    (bridges_agree net pats dlog ~rest ~victim ~aggressor, true)

let prop_bridge_scorer_matches_overlay =
  QCheck.Test.make ~name:"evaluate_bridges matches overlay evaluate (all kinds)" ~count:60
    QCheck.(pair (int_range 1 100_000) (int_range 0 4))
    (fun (seed, case) -> fst (bridge_case seed case))

(* Every relation the property forces is reached on fixed seeds — the
   feedback bridges downstream (every kind) and upstream (wired), and
   an aggressor that is itself a rest site — and agrees there. *)
let test_bridge_corner_cases () =
  List.iter
    (fun case ->
      let runs =
        List.map (fun i -> bridge_case (1 + (i * 7717)) case) (List.init 6 Fun.id)
      in
      Alcotest.(check bool)
        (Printf.sprintf "case %d agrees" case)
        true
        (List.for_all fst runs);
      Alcotest.(check bool)
        (Printf.sprintf "case %d reached" case)
        true (List.exists snd runs))
    [ 0; 1; 2; 3; 4 ]

(* --- one-change sweeps against the overlay scorer ------------------- *)

(* [Scoring.evaluate_trial] scores a trial against a held base by a
   change sweep; the reference scores the trial by whole-block overlay
   resimulation.  The base holds a site [a], a member inside [a]'s
   fanout cone where it has one (dropping [a] then changes the inputs
   of a pinned net), a site at both polarities and a primary input.
   The trials are every drop (one polarity of the flipped site among
   them), the other polarity added at each single-polarity site (a
   flip), a pin added at a free site, and the base itself — run twice
   over, so a change sweep follows every other kind.  A second base,
   held after an ordinary sweep, repeats the trials: the frame's rows
   and pins must come back from the first.  Pattern counts are never a
   multiple of 63, so the last block is partial.  Returns whether every
   score agreed, and which corners the case reached: a dropped member
   whose cone holds another member, an added flip, a dropped polarity
   of a flipped site. *)
let one_change_case seed =
  let rng = Rng.create ((seed * 29) + 1) in
  let net =
    tied ~seed (Generators.random_logic ~gates:(40 + (seed mod 120)) ~pis:6 ~pos:5 ~seed)
  in
  let count = 64 + Rng.int rng 150 in
  let count = if count mod Bitvec.word_bits = 0 then count + 1 else count in
  let pats = Pattern.random rng ~npis:6 ~count in
  let expected = Logic_sim.responses net pats in
  let defects = Injection.random_defects rng net Injection.default_mix 2 in
  let observed = Injection.observed_responses net pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  let n = Netlist.num_nets net in
  let fault site stuck = { Fault_list.site; stuck } in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let a = Rng.int rng n in
  let down = Netlist.fanout_reach net a in
  let b =
    match List.filter (fun x -> x <> a && down.(x)) (List.init n Fun.id) with
    | [] -> Rng.int rng n
    | l -> pick l
  in
  let c = Rng.int rng n in
  let pi = pick (Array.to_list (Netlist.pis net)) in
  let base =
    List.sort_uniq compare
      [
        fault a (Rng.bool rng);
        fault b (Rng.bool rng);
        fault c true;
        fault c false;
        fault pi (Rng.bool rng);
      ]
  in
  let polarities faults site =
    List.sort_uniq compare
      (List.filter_map
         (fun (f : Fault_list.fault) -> if f.site = site then Some f.stuck else None)
         faults)
  in
  let trials base =
    let drops = List.map (fun f -> (`Drop f, List.filter (( <> ) f) base)) base in
    let flips =
      List.filter_map
        (fun (f : Fault_list.fault) ->
          match polarities base f.site with
          | [ v ] -> Some (`Flip, fault f.site (not v) :: base)
          | _ -> None)
        base
    in
    let free = List.filter (fun x -> polarities base x = []) (List.init n Fun.id) in
    let adds =
      List.map (fun x -> (`Add, fault x (Rng.bool rng) :: base)) [ pick free; pick free ]
    in
    ((`Same, base) :: drops) @ flips @ adds
  in
  let session = Session.create net pats in
  let sc = Scoring.create session dlog in
  let ok = ref true in
  let overlap = ref false and flip_add = ref false and flip_drop = ref false in
  let reference trial = Reference.evaluate_multiplet net pats dlog trial in
  let check trial =
    if Scoring.evaluate_trial sc trial <> reference trial then ok := false
  in
  let run base =
    ignore (Scoring.hold sc base : Scoring.score);
    let ts = trials base in
    List.iter
      (fun (kind, trial) ->
        check trial;
        match kind with
        | `Drop (f : Fault_list.fault) ->
          let cone = Netlist.fanout_reach net f.site in
          let in_cone (g : Fault_list.fault) = g.site <> f.site && cone.(g.site) in
          if List.exists in_cone base then overlap := true;
          if List.length (polarities base f.site) = 2 then flip_drop := true
        | `Flip -> flip_add := true
        | `Add | `Same -> ())
      (ts @ ts)
  in
  run base;
  let other = fault (Rng.int rng n) (Rng.bool rng) :: base in
  if Scoring.evaluate_multiplet sc other <> reference other then ok := false;
  run (List.filter (fun (f : Fault_list.fault) -> f.site <> a) base);
  let blocks = Session.blocks session in
  let partial = blocks.(Array.length blocks - 1).Pattern.width < Bitvec.word_bits in
  (!ok && partial, !overlap, !flip_add, !flip_drop)

let prop_one_change_matches_overlay =
  QCheck.Test.make
    ~name:"evaluate_trial: change sweep on a held base = overlay resimulation" ~count:25
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let ok, _, _, _ = one_change_case seed in
      ok)

let test_one_change_corner_cases () =
  let cases = List.map one_change_case (List.init 8 (fun i -> 1 + (i * 6151))) in
  Alcotest.(check bool)
    "every case agrees" true
    (List.for_all (fun (ok, _, _, _) -> ok) cases);
  Alcotest.(check bool) "a dropped member's cone holds another member" true
    (List.exists (fun (_, o, _, _) -> o) cases);
  Alcotest.(check bool) "an added polarity flips a held site" true
    (List.exists (fun (_, _, f, _) -> f) cases);
  Alcotest.(check bool) "a dropped polarity unflips a site" true
    (List.exists (fun (_, _, _, d) -> d) cases)

(* Without a held base there is nothing to change. *)
let test_trial_needs_base () =
  let net, pats, dlog = random_problem 3 2 in
  let sc = Scoring.create (Session.create net pats) dlog in
  Alcotest.check_raises "no base"
    (Invalid_argument "Scoring.evaluate_trial: no base held")
    (fun () -> ignore (Scoring.evaluate_trial sc [] : Scoring.score))

(* A bridge that never settles: the victim drives its aggressor through
   one inverter, so the dominant (and, with the other side at its
   non-controlling value, each wired) bridge inverts the victim on
   every overlay sweep and the [Logic_sim.max_sweeps] cap alone decides
   where the lanes stop.  Any other recurrence count lands on the other
   phase. *)
let test_oscillating_bridge () =
  let b = Builder.create () in
  let x = Builder.input b "x" and y = Builder.input b "y" and z = Builder.input b "z" in
  let victim = Builder.and_ b ~name:"v" [ x; y ] in
  let aggressor = Builder.not_ b ~name:"a" victim in
  Builder.mark_output b victim;
  Builder.mark_output b aggressor;
  Builder.mark_output b (Builder.xor_ b ~name:"o" [ aggressor; z ]);
  let net = Builder.finalize b in
  let pats = Pattern.exhaustive ~npis:3 in
  List.iter
    (fun kind ->
      let expected = Logic_sim.responses net pats in
      let bridge = Defect.Bridge { victim; aggressor; kind } in
      let observed = Injection.observed_responses net pats [ bridge ] in
      let dlog = Datalog.of_responses ~expected ~observed in
      let rest = [ { Fault_list.site = z; stuck = true } ] in
      Alcotest.(check bool)
        (Printf.sprintf "%s equals overlay" (Defect.describe net bridge))
        true
        (bridges_agree net pats dlog ~rest ~victim ~aggressor))
    bridge_kinds

(* --- Explain.build_session: brute force and warm replay ------------- *)

let explain_equal m1 m2 =
  let c1 = Explain.candidates m1 and c2 = Explain.candidates m2 in
  let nfp = Array.length (Explain.failing m1) in
  c1 = c2
  && Explain.failing m1 = Explain.failing m2
  && Explain.num_seeded m1 = Explain.num_seeded m2
  && Array.for_all Fun.id
       (Array.mapi
          (fun c _ ->
            Bitvec.equal (Explain.covers m1 c) (Explain.covers m2 c)
            && Explain.mispredict_pass m1 c = Explain.mispredict_pass m2 c
            && Explain.mispredict_fail m1 c = Explain.mispredict_fail m2 c
            &&
            let ok = ref true in
            for fp = 0 to nfp - 1 do
              if
                Explain.matched m1 c fp <> Explain.matched m2 c fp
                || Explain.spurious_any m1 c fp <> Explain.spurious_any m2 c fp
                || Explain.exact m1 c fp <> Explain.exact m2 c fp
              then ok := false
            done;
            !ok)
          c1)

(* On a cold session with four domains filling its cache, the batched
   build must match the per-fault brute-force reference, and a warm
   replay from the cache it filled must produce the identical matrix. *)
let prop_explain_brute_force_and_replay =
  QCheck.Test.make
    ~name:"Explain.build: batched = per-fault brute force = warm replay (4 domains)"
    ~count:8
    QCheck.(pair (int_range 1 100_000) (int_range 1 3))
    (fun (seed, multiplicity) ->
      let net, pats, dlog = random_problem seed multiplicity in
      if Datalog.num_failing dlog = 0 then true
      else begin
        With_domains.run 4 @@ fun () ->
        let session = Session.create net pats in
        let batched = Explain.build_session session dlog in
        let warm = Explain.build_session session dlog in
        matches_naive net pats dlog batched && explain_equal batched warm
      end)

(* --- Packed frozen arena against scalar-computed triples ------------ *)

(* The arena answers [find] by decoding its packed bytes into a fresh
   array and [decode] into a reused buffer; both must reproduce, bit
   for bit, the triples the
   scalar simulator computed and stored one key at a time — and still
   must after a save/load cycle replaces the arena with bytes read back
   from disk. *)
let prop_packed_arena_matches_scalar =
  QCheck.Test.make
    ~name:"packed frozen arena (in-memory and loaded) decodes = scalar triples"
    ~count:10
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let net = Generators.random_logic ~gates:(40 + (seed mod 60)) ~pis:6 ~pos:5 ~seed in
      let pats = Pattern.random (Rng.create (seed * 3)) ~npis:6 ~count:70 in
      let c = Sig_cache.create net pats in
      let sim = Reference.scalar net and good = Reference.good net pats in
      let faults = Fault_list.representatives (Fault_list.collapse net) in
      let reference =
        List.map
          (fun (f : Fault_list.fault) ->
            let k = Sig_cache.key ~site:f.Fault_list.site ~stuck:f.Fault_list.stuck in
            ( k,
              Array.copy
                (Reference.lookup c sim good ~site:f.Fault_list.site
                   ~stuck:f.Fault_list.stuck)
            ))
          faults
      in
      (* One buffer for every key and both arenas, as a replay loop
         reuses it: a row shorter than the last must not read its
         tail. *)
      let buf = Sig_cache.buffer () in
      let agrees cache =
        List.for_all
          (fun (k, triples) ->
            let decoded = Reference.cached cache k = Some triples in
            let buffered =
              Sig_cache.mem cache k
              &&
              (Sig_cache.decode cache k buf;
               Array.sub buf.Sig_cache.data 0 buf.Sig_cache.len = triples)
            in
            decoded && buffered)
          reference
      in
      Temp_dir.with_dir @@ fun dir ->
      let saved = Sig_cache.save_frozen ~dir c in
      let in_memory = agrees c in
      let c2 = Sig_cache.create net pats in
      let loaded = Sig_cache.load_frozen ~dir c2 in
      let from_disk = agrees c2 in
      saved && loaded && in_memory && from_disk)

let suite =
  [
    ( "kernel-oracle",
      Alcotest.test_case "oscillating bridge: sweep cap decides" `Quick
        test_oscillating_bridge
      :: Alcotest.test_case "aggressor screen: one sweep per victim" `Quick
           test_screen_one_sweep
      :: Alcotest.test_case "explain layout oracle reaches its corner cases" `Quick
           test_layout_corner_cases
      :: Alcotest.test_case "bridge oracle reaches every relation" `Quick
           test_bridge_corner_cases
      :: Alcotest.test_case "one-change oracle reaches its corner cases" `Quick
           test_one_change_corner_cases
      :: Alcotest.test_case "evaluate_trial needs a held base" `Quick
           test_trial_needs_base
      :: List.map QCheck_alcotest.to_alcotest
        [
          prop_good_matches_scalar;
          prop_delta_injection_matches_overlay;
          prop_explain_matches_naive;
          prop_layout_matches_triples;
          prop_signature_goods_equivalent;
          prop_simulate_batch_matches_scalar;
          prop_held_sweep_matches_scalar;
          prop_screen_matches_per_aggressor;
          prop_greedy_cover_matches_exhaustive;
          prop_evaluate_multiplet_matches_overlay;
          prop_bridge_scorer_matches_overlay;
          prop_one_change_matches_overlay;
          prop_explain_brute_force_and_replay;
          prop_packed_arena_matches_scalar;
        ] );
  ]

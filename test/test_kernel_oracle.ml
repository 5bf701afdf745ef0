(* End-to-end oracles for the allocation-free simulation kernel: every
   fast path (event-driven propagation with PO-reachability screening,
   the direct-indexed [Explain.build_session] accumulators, precomputed-goods
   signatures) must agree bit for bit with a brute-force overlay
   resimulation that shares none of its code. *)

let random_problem seed multiplicity =
  let gates = 40 + (seed mod 100) in
  let net = Generators.random_logic ~gates ~pis:6 ~pos:5 ~seed in
  let rng = Rng.create (seed * 7) in
  let pats = Pattern.random rng ~npis:6 ~count:80 in
  let expected = Logic_sim.responses net pats in
  let k = min multiplicity (max 1 (Injection.capacity net / 4)) in
  let defects = Injection.random_defects rng net Injection.default_mix k in
  let observed = Injection.observed_responses net pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  (net, pats, dlog)

(* --- po_diffs against overlay resimulation -------------------------- *)

(* Unlike the stuck-at oracle in [Test_fault_sim], this drives
   [iter_po_diffs_delta] with an arbitrary injected error word, the
   single-block reference for [batch_po_diffs_delta], which the
   aggressor screens in [Noassume] run. *)
let prop_delta_injection_matches_overlay =
  QCheck.Test.make
    ~name:"iter_po_diffs_delta matches overlay resimulation (random delta)"
    ~count:25
    QCheck.(pair (int_range 1 100_000) (int_range 0 0x3FFFFFF))
    (fun (seed, delta_bits) ->
      let net = Generators.random_logic ~gates:60 ~pis:6 ~pos:4 ~seed in
      let pats = Pattern.random (Rng.create seed) ~npis:6 ~count:50 in
      let sim = Fault_sim.create net in
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
          Fault_sim.iter_po_diffs_delta sim ~good ~width:block.width ~site ~delta
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
      for fp = 0 to nfp - 1 do
        if
          Explain.matched m c fp <> matched.(c).(fp)
          || Explain.spurious m c fp <> spurious.(c).(fp)
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
        let session =
          Session.create ~config:{ Session.default_config with domains = Some 1 } net pats
        in
        matches_naive net pats dlog (Explain.build_session session dlog))

(* --- signature ~goods ----------------------------------------------- *)

let prop_signature_goods_equivalent =
  QCheck.Test.make
    ~name:"signature ~goods = signature recomputing goods" ~count:25
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let net = Generators.random_logic ~gates:50 ~pis:6 ~pos:4 ~seed in
      let pats = Pattern.random (Rng.create (seed + 3)) ~npis:6 ~count:70 in
      let sim = Fault_sim.create net in
      let goods =
        Array.of_list
          (List.map (Logic_sim.simulate_block net) (Pattern.blocks pats))
      in
      let site = Rng.int (Rng.create (seed + 4)) (Netlist.num_nets net) in
      List.for_all
        (fun stuck ->
          let a = Fault_sim.signature sim ~goods pats ~site ~stuck in
          let b = Fault_sim.signature sim pats ~site ~stuck in
          Array.for_all2 Bitvec.equal a b)
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
      let net = Generators.random_logic ~gates ~pis:7 ~pos:5 ~seed in
      let pats = Pattern.random (Rng.create (seed + 11)) ~npis:7 ~count:150 in
      let blocks = Array.of_list (Pattern.blocks pats) in
      let goods = Array.map (Logic_sim.simulate_block net) blocks in
      let sim = Fault_sim.create net in
      let b = Fault_sim.prepare_batch sim ~blocks ~goods in
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
              Fault_sim.iter_po_diffs sim ~good:goods.(bi) ~width:block.width
                ~site ~stuck (fun oi w -> want.(i).((bi * npos) + oi) <- w))
            blocks)
        faults;
      got = want)

(* Same property for the arbitrary-delta entry point (the aggressor
   screens): one sweep over all blocks vs. one scalar sweep per block. *)
let prop_batch_delta_matches_scalar =
  QCheck.Test.make
    ~name:"batch_po_diffs_delta matches per-block iter_po_diffs_delta"
    ~count:20
    QCheck.(pair (int_range 1 100_000) (int_range 0 max_int))
    (fun (seed, delta_seed) ->
      let net = Generators.random_logic ~gates:70 ~pis:6 ~pos:4 ~seed in
      let pats = Pattern.random (Rng.create (seed + 5)) ~npis:6 ~count:140 in
      let blocks = Array.of_list (Pattern.blocks pats) in
      let goods = Array.map (Logic_sim.simulate_block net) blocks in
      let sim = Fault_sim.create net in
      let b = Fault_sim.prepare_batch sim ~blocks ~goods in
      let rng = Rng.create delta_seed in
      let site = Rng.int (Rng.create (seed + 6)) (Netlist.num_nets net) in
      let deltas =
        Array.map (fun _ -> Rng.int rng (1 lsl 30)) blocks
      in
      let npos = Netlist.num_pos net in
      let nb = Array.length blocks in
      let got = Array.make (nb * npos) 0 in
      Fault_sim.batch_po_diffs_delta b ~site ~deltas (fun bi oi w ->
          got.((bi * npos) + oi) <- w);
      let want = Array.make (nb * npos) 0 in
      Array.iteri
        (fun bi (block : Pattern.block) ->
          Fault_sim.iter_po_diffs_delta sim ~good:goods.(bi) ~width:block.width
            ~site ~delta:deltas.(bi)
            (fun oi w -> want.((bi * npos) + oi) <- w))
        blocks;
      got = want)

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
      Scoring.evaluate_multiplet net pats dlog faults
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

let bridges_agree net pats dlog ~rest ~victim ~aggressor =
  let hyps = List.map (fun kind -> (aggressor, kind)) bridge_kinds in
  let got = Scoring.evaluate_bridges net pats dlog ~rest ~victim hyps in
  let want =
    List.map
      (fun kind ->
        Reference.evaluate net pats dlog
          (Scoring.overlay_of_multiplet rest
          @ Defect.overlay (Defect.Bridge { victim; aggressor; kind })))
      bridge_kinds
  in
  got = want

let prop_bridge_scorer_matches_overlay =
  QCheck.Test.make ~name:"evaluate_bridges matches overlay evaluate (all kinds)" ~count:60
    QCheck.(pair (int_range 1 100_000) (int_range 0 4))
    (fun (seed, case) ->
      let gates = 50 + (seed mod 251) in
      let net = Generators.random_logic ~gates ~pis:7 ~pos:5 ~seed in
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
            (pick (fun v -> Array.length (Netlist.fanout net v) > 0))
            (fun v -> Option.map (fun a -> (v, a)) (pick (strictly (Netlist.fanout_reach net v) v)))
        | 2 ->
          Option.bind
            (pick (fun v -> not (Netlist.is_pi net v)))
            (fun v -> Option.map (fun a -> (v, a)) (pick (strictly (Netlist.fanin_cone net v) v)))
        | 0 ->
          Option.bind
            (pick (fun _ -> true))
            (fun v ->
              let down = Netlist.fanout_reach net v and up = Netlist.fanin_cone net v in
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
      | None -> true
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
        let rest = List.concat_map (fun _ -> pins (site ())) (List.init (1 + Rng.int rng 3) Fun.id) in
        let rest = if case = 3 then pins aggressor @ rest else rest in
        bridges_agree net pats dlog ~rest ~victim ~aggressor)

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
                || Explain.spurious m1 c fp <> Explain.spurious m2 c fp
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
        let session =
          Session.create ~config:{ Session.default_config with domains = Some 4 } net pats
        in
        let batched = Explain.build_session session dlog in
        let warm = Explain.build_session session dlog in
        matches_naive net pats dlog batched && explain_equal batched warm
      end)

(* --- Packed frozen arena against scalar-computed triples ------------ *)

(* The frozen tier answers [find] by decoding the varint arena and
   [iter_frozen] by streaming it; both must reproduce, bit for bit, the
   triples the scalar simulator computed into the mutable tier — and
   still must after a save/load cycle replaces the arena with bytes
   read back from disk. *)
let prop_packed_arena_matches_scalar =
  QCheck.Test.make
    ~name:"packed frozen arena (in-memory and loaded) decodes = scalar triples"
    ~count:10
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let net = Generators.random_logic ~gates:(40 + (seed mod 60)) ~pis:6 ~pos:5 ~seed in
      let pats = Pattern.random (Rng.create (seed * 3)) ~npis:6 ~count:70 in
      let c = Sig_cache.create net pats in
      let sim = Fault_sim.create net in
      let faults = Fault_list.representatives (Fault_list.collapse net) in
      let reference =
        List.map
          (fun (f : Fault_list.fault) ->
            let k = Sig_cache.key ~site:f.Fault_list.site ~stuck:f.Fault_list.stuck in
            ( k,
              Array.copy
                (Reference.lookup c sim ~site:f.Fault_list.site ~stuck:f.Fault_list.stuck)
            ))
          faults
      in
      Sig_cache.freeze c;
      let agrees cache =
        List.for_all
          (fun (k, triples) ->
            let decoded = Sig_cache.find cache k = Some triples in
            let streamed =
              match Sig_cache.probe cache k with
              | Sig_cache.Frozen ->
                let buf = ref [] in
                Sig_cache.iter_frozen cache k (fun bi oi w -> buf := w :: oi :: bi :: !buf);
                Array.of_list (List.rev !buf) = triples
              | Sig_cache.Warm _ | Sig_cache.Cold -> false
            in
            decoded && streamed)
          reference
      in
      let dir = Filename.temp_file "mddoracle" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o755;
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
      :: List.map QCheck_alcotest.to_alcotest
        [
          prop_delta_injection_matches_overlay;
          prop_explain_matches_naive;
          prop_signature_goods_equivalent;
          prop_simulate_batch_matches_scalar;
          prop_batch_delta_matches_scalar;
          prop_evaluate_multiplet_matches_overlay;
          prop_bridge_scorer_matches_overlay;
          prop_explain_brute_force_and_replay;
          prop_packed_arena_matches_scalar;
        ] );
  ]

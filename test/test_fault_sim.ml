(* Oracle: both fault simulators — the batch kernel in [Fault_sim],
   over every block at once, and the scalar reference, one block at a
   time — must agree exactly with a full overlay simulation of the same
   stuck fault. *)

(* The batch kernel's masked diff words of one fault, by (block, PO). *)
let batch_words sim ~nblocks ~npos ~site ~stuck =
  let words = Array.make_matrix nblocks npos 0 in
  Fault_sim.simulate_batch sim ~n:1
    ~fault:(fun _ -> (site, stuck))
    (fun _ bi oi w -> words.(bi).(oi) <- w);
  words

let check_against_overlay name net pats =
  let blocks = Array.of_list (Pattern.blocks pats) in
  let goods = Array.map (Logic_sim.simulate_block net) blocks in
  let sim = Reference.scalar net in
  let batch = Fault_sim.create net (Fault_sim.good net blocks) in
  let npos = Netlist.num_pos net in
  Netlist.iter_nets net (fun site ->
      List.iter
        (fun stuck ->
          let nblocks = Array.length blocks in
          let batched = batch_words batch ~nblocks ~npos ~site ~stuck in
          Array.iteri
            (fun bi (block : Pattern.block) ->
              let good = goods.(bi) in
              let diffs = Reference.po_diffs sim ~good ~width:block.width ~site ~stuck in
              let overlay_words =
                Logic_sim.simulate_block_overlay net block [ Logic_sim.force site stuck ]
              in
              let mask = Logic.mask_of_width block.width in
              Array.iteri
                (fun oi po ->
                  let expect = (overlay_words.(po) lxor good.(po)) land mask in
                  let got = match List.assoc_opt oi diffs with Some d -> d | None -> 0 in
                  if expect <> got || expect <> batched.(bi).(oi) then
                    Alcotest.failf "%s: %s sa%d at PO %d: diff %x, batch %x vs overlay %x"
                      name (Netlist.name net site) (Bool.to_int stuck) oi got
                      batched.(bi).(oi) expect)
                (Netlist.pos net))
            blocks)
        [ false; true ])

let test_oracle_c17 () =
  check_against_overlay "c17" (Generators.c17 ()) (Pattern.exhaustive ~npis:5)

let test_oracle_add8 () =
  let net = Generators.ripple_adder 8 in
  let pats = Pattern.random (Rng.create 21) ~npis:(Netlist.num_pis net) ~count:80 in
  check_against_overlay "add8" net pats

let test_oracle_majority () =
  let net = Generators.majority 9 in
  let pats = Pattern.random (Rng.create 22) ~npis:9 ~count:80 in
  check_against_overlay "maj9" net pats

let qcheck_oracle_random_circuits =
  QCheck.Test.make ~name:"event-driven fault sim matches overlay (random)" ~count:15
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let net = Generators.random_logic ~gates:60 ~pis:6 ~pos:4 ~seed in
      let pats = Pattern.random (Rng.create seed) ~npis:6 ~count:40 in
      check_against_overlay "rnd" net pats;
      true)

(* [Po_reach] against a per-net depth-first walk over the fanouts, on
   random circuits with more than 63 outputs (a net's mask spans several
   words), outputs that also feed gates, and dead gates that reach no
   output. *)
let qcheck_po_reach_matches_dfs =
  QCheck.Test.make ~name:"Po_reach = per-net fanout DFS (random, > 63 POs)" ~count:30
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let b = Builder.create () in
      let nets = ref (List.init 4 (fun i -> Builder.input b (Printf.sprintf "pi%d" i))) in
      let kinds = [| Gate.And; Gate.Or; Gate.Nand; Gate.Nor; Gate.Xor; Gate.Not |] in
      (* A gate over distinct earlier nets, added to the pool. *)
      let gate name =
        let avail = Array.of_list !nets in
        let kind = Rng.pick rng kinds in
        let rec distinct k acc =
          if k = 0 then acc
          else
            let c = avail.(Rng.int rng (Array.length avail)) in
            if List.mem c acc then distinct k acc else distinct (k - 1) (c :: acc)
        in
        let g = Builder.gate b name kind (distinct (if kind = Gate.Not then 1 else 2) []) in
        nets := g :: !nets;
        g
      in
      let gates = List.init (100 + Rng.int rng 100) (fun i -> gate (Printf.sprintf "g%d" i)) in
      List.iteri (fun i g -> if i < 64 || Rng.int rng 3 = 0 then Builder.mark_output b g) gates;
      ignore (List.init 3 (fun i -> gate (Printf.sprintf "dead%d" i)) : Netlist.net list);
      let net = Builder.finalize b in
      let reach = Po_reach.compute net in
      let pos = Netlist.pos net and n = Netlist.num_nets net in
      let got = Array.make (Array.length pos) 0 in
      let dfs v =
        let seen = Array.make n false in
        let rec walk u =
          if not seen.(u) then begin
            seen.(u) <- true;
            Array.iter walk (Reference.fanout net u)
          end
        in
        walk v;
        List.filter (fun oi -> seen.(pos.(oi))) (List.init (Array.length pos) Fun.id)
      in
      let agrees v =
        let want = dfs v in
        let k = Po_reach.reachable_into reach v got in
        Po_reach.num_reachable reach v = List.length want
        && Array.to_list (Array.sub got 0 k) = want
      in
      let all = List.init n Fun.id in
      (* The cases the circuit was built to hold really hold. *)
      Array.length pos > Bitvec.word_bits
      && Array.exists (fun po -> Reference.fanout net po <> [||]) pos
      && List.exists (fun v -> Po_reach.num_reachable reach v = 0) all
      && List.for_all agrees all)

let test_no_effect_when_value_matches () =
  (* Stuck at the good value on all patterns -> no diffs at all. *)
  let net = Generators.c17 () in
  let sim = Reference.scalar net in
  let pats = Pattern.of_list ~npis:5 [ Array.make 5 false ] in
  let block = List.hd (Pattern.blocks pats) in
  let good = Logic_sim.simulate_block net block in
  Netlist.iter_nets net (fun site ->
      let v = good.(site) land 1 = 1 in
      Alcotest.(check (list (pair int int)))
        "no diff" []
        (Reference.po_diffs sim ~good ~width:1 ~site ~stuck:v))

let test_detects_word () =
  let net = Generators.c17 () in
  let sim = Reference.scalar net in
  let pats = Pattern.exhaustive ~npis:5 in
  let block = List.hd (Pattern.blocks pats) in
  let good = Logic_sim.simulate_block net block in
  let g16 = Option.get (Netlist.find net "G16") in
  let w = Reference.detects sim ~good ~width:block.Pattern.width ~site:g16 ~stuck:true in
  (* detects = OR over po_diffs. *)
  let expect =
    List.fold_left (fun acc (_, d) -> acc lor d) 0
      (Reference.po_diffs sim ~good ~width:block.Pattern.width ~site:g16 ~stuck:true)
  in
  Alcotest.(check int) "or of diffs" expect w;
  Alcotest.(check bool) "detected somewhere" true (w <> 0)

let test_signature_consistency () =
  (* signature must equal the per-block po_diffs, pattern by pattern. *)
  let net = Generators.ripple_adder 4 in
  let pats = Pattern.random (Rng.create 23) ~npis:9 ~count:100 in
  let sim = Reference.scalar net in
  let site = (Netlist.pos net).(1) in
  let signature = Reference.signature sim pats ~site ~stuck:false in
  List.iter
    (fun block ->
      let good = Logic_sim.simulate_block net block in
      let diffs = Reference.po_diffs sim ~good ~width:block.Pattern.width ~site ~stuck:false in
      Array.iteri
        (fun oi _ ->
          let d = match List.assoc_opt oi diffs with Some d -> d | None -> 0 in
          for k = 0 to block.Pattern.width - 1 do
            Alcotest.(check bool) "bit" (d lsr k land 1 = 1)
              (Bitvec.get signature.(oi) (block.Pattern.base + k))
          done)
        (Netlist.pos net))
    (Pattern.blocks pats)

let test_reusable_across_faults () =
  (* The scratch state must fully reset between sweeps: interleave
     faults on one simulator and compare against fresh simulators. *)
  let net = Generators.ripple_adder 4 in
  let pats = Pattern.random (Rng.create 24) ~npis:9 ~count:60 in
  let blocks = Array.of_list (Pattern.blocks pats) in
  let good = Fault_sim.good net blocks in
  let nblocks = Array.length blocks and npos = Netlist.num_pos net in
  let shared = Fault_sim.create net good in
  Netlist.iter_nets net (fun site ->
      let fresh = Fault_sim.create net good in
      let a = batch_words shared ~nblocks ~npos ~site ~stuck:true in
      let b = batch_words fresh ~nblocks ~npos ~site ~stuck:true in
      Alcotest.(check (array (array int))) "same" b a)

(* [rebind] points a simulator at another good machine: a simulator
   rebound to a block sweeps exactly like one created for it, and one
   that holds a frame, or is offered a good machine of another block
   count or netlist, refuses. *)
let test_rebind () =
  let net = Generators.ripple_adder 4 in
  let pats = Pattern.random (Rng.create 25) ~npis:9 ~count:100 in
  let blocks = Array.of_list (Pattern.blocks pats) in
  let one bi = Fault_sim.good net [| blocks.(bi) |] in
  let npos = Netlist.num_pos net in
  let sim = Fault_sim.create net (one 0) in
  Array.iteri
    (fun bi _ ->
      Fault_sim.rebind sim (one bi);
      let fresh = Fault_sim.create net (one bi) in
      Netlist.iter_nets net (fun site ->
          List.iter
            (fun stuck ->
              Alcotest.(check (array (array int)))
                "rebound = fresh"
                (batch_words fresh ~nblocks:1 ~npos ~site ~stuck)
                (batch_words sim ~nblocks:1 ~npos ~site ~stuck))
            [ false; true ]))
    blocks;
  let refuses what f =
    match f () with
    | () -> Alcotest.failf "rebind of %s did not raise" what
    | exception Invalid_argument _ -> ()
  in
  let framed = Fault_sim.create net (one 0) in
  Fault_sim.hold framed [ (0, Fault_sim.Stuck true) ] (fun _ _ _ -> ());
  refuses "a framed simulator" (fun () -> Fault_sim.rebind framed (one 0));
  refuses "a block count mismatch" (fun () ->
      Fault_sim.rebind (Fault_sim.create net (one 0)) (Fault_sim.good net blocks));
  refuses "another netlist's good machine" (fun () ->
      let other = Generators.ripple_adder 5 in
      let pats = Pattern.random (Rng.create 26) ~npis:11 ~count:8 in
      let block = List.hd (Pattern.blocks pats) in
      Fault_sim.rebind (Fault_sim.create net (one 0)) (Fault_sim.good other [| block |]))

let suite =
  [
    ( "fault_sim",
      [
        Alcotest.test_case "oracle c17 exhaustive" `Quick test_oracle_c17;
        Alcotest.test_case "oracle add8" `Quick test_oracle_add8;
        Alcotest.test_case "oracle maj9" `Quick test_oracle_majority;
        Alcotest.test_case "stuck at good value" `Quick test_no_effect_when_value_matches;
        Alcotest.test_case "detects word" `Quick test_detects_word;
        Alcotest.test_case "signature consistency" `Quick test_signature_consistency;
        Alcotest.test_case "reusable across faults" `Quick test_reusable_across_faults;
        Alcotest.test_case "rebind" `Quick test_rebind;
        QCheck_alcotest.to_alcotest qcheck_oracle_random_circuits;
        QCheck_alcotest.to_alcotest qcheck_po_reach_matches_dfs;
      ] );
  ]

(* Reference evaluator: direct recursive bool evaluation per net. *)
let reference_values net inputs =
  let values = Array.make (Netlist.num_nets net) false in
  Array.iteri (fun i pi -> values.(pi) <- inputs.(i)) (Netlist.pis net);
  Array.iter
    (fun n ->
      if not (Netlist.is_pi net n) then
        values.(n) <-
          Scalar_logic.eval_bool (Netlist.kind net n)
            (Array.to_list (Array.map (fun s -> values.(s)) (Netlist.fanin net n))))
    (Netlist.topo_order net);
  values

let test_simulate_pattern_matches_reference () =
  let net = Generators.c17 () in
  let p = Pattern.exhaustive ~npis:5 in
  for i = 0 to Pattern.count p - 1 do
    let inputs = Pattern.pattern p i in
    Alcotest.(check (array bool)) "values" (reference_values net inputs)
      (Logic_sim.simulate_pattern net inputs)
  done

let test_block_matches_scalar () =
  (* Bit-parallel block simulation must agree with scalar simulation on
     every pattern of the block, across several circuits. *)
  List.iter
    (fun (name, net) ->
      let rng = Rng.create 11 in
      let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:100 in
      List.iter
        (fun block ->
          let words = Logic_sim.simulate_block net block in
          for k = 0 to block.Pattern.width - 1 do
            let scalar =
              Logic_sim.simulate_pattern net (Pattern.pattern pats (block.Pattern.base + k))
            in
            Netlist.iter_nets net (fun n ->
                if words.(n) lsr k land 1 = 1 <> scalar.(n) then
                  Alcotest.failf "%s: net %s differs on pattern %d" name
                    (Netlist.name net n) (block.Pattern.base + k))
          done)
        (Pattern.blocks pats))
    [ ("c17", Generators.c17 ()); ("add8", Generators.ripple_adder 8);
      ("maj9", Generators.majority 9) ]

let test_overlay_empty_equals_plain () =
  let net = Generators.ripple_adder 8 in
  let rng = Rng.create 12 in
  let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:64 in
  List.iter
    (fun block ->
      Alcotest.(check (array int)) "same words"
        (Logic_sim.simulate_block net block)
        (Logic_sim.simulate_block_overlay net block []))
    (Pattern.blocks pats)

let test_overlay_force () =
  (* Forcing an internal net behaves like rebuilding the circuit with a
     constant there. *)
  let net = Generators.c17 () in
  let g11 = Option.get (Netlist.find net "G11") in
  let pats = Pattern.exhaustive ~npis:5 in
  let forced = Logic_sim.responses_overlay net pats [ Logic_sim.force g11 true ] in
  (* Reference: simulate scalars with a manual override. *)
  let block_ref p =
    let values = Array.make (Netlist.num_nets net) false in
    Array.iteri (fun i pi -> values.(pi) <- Pattern.get pats p i) (Netlist.pis net);
    Array.iter
      (fun n ->
        if not (Netlist.is_pi net n) then
          values.(n) <-
            (if n = g11 then true
             else
               Scalar_logic.eval_bool (Netlist.kind net n)
                 (Array.to_list (Array.map (fun s -> values.(s)) (Netlist.fanin net n)))))
      (Netlist.topo_order net);
    values
  in
  for p = 0 to Pattern.count pats - 1 do
    let values = block_ref p in
    Array.iteri
      (fun oi po ->
        Alcotest.(check bool) "po" values.(po) (Bitvec.get forced.(oi) p))
      (Netlist.pos net)
  done

let test_overlay_force_pi () =
  (* A stuck primary input overrides the applied stimulus. *)
  let net = Generators.c17 () in
  let g1 = Option.get (Netlist.find net "G1") in
  let pats = Pattern.exhaustive ~npis:5 in
  let forced = Logic_sim.responses_overlay net pats [ Logic_sim.force g1 false ] in
  (* Every pattern must behave as if G1=0. *)
  let expected = Logic_sim.responses net pats in
  for p = 0 to 31 do
    (* Pattern with G1 already 0 that matches p on other inputs: p land ~1. *)
    let q = p land lnot 1 in
    Array.iteri
      (fun oi _ ->
        Alcotest.(check bool)
          (Printf.sprintf "p=%d oi=%d" p oi)
          (Bitvec.get expected.(oi) q)
          (Bitvec.get forced.(oi) p))
      (Netlist.pos net)
  done

let test_overlay_follow_net () =
  (* Dominant-bridge-style override: victim takes another net's value. *)
  let b = Builder.create () in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  let nx = Builder.not_ b ~name:"nx" x in
  let ny = Builder.not_ b ~name:"ny" y in
  Builder.mark_output b nx;
  Builder.mark_output b ny;
  let net = Builder.finalize b in
  let pats = Pattern.exhaustive ~npis:2 in
  let overlay =
    [ { Logic_sim.target = nx; behave = (fun ~computed:_ ~value_of ~driven_of:_ ~base:_ -> value_of ny) } ]
  in
  let r = Logic_sim.responses_overlay net pats overlay in
  for p = 0 to 3 do
    let y_v = p land 2 <> 0 in
    Alcotest.(check bool) "nx follows ny" (not y_v) (Bitvec.get r.(0) p);
    Alcotest.(check bool) "ny normal" (not y_v) (Bitvec.get r.(1) p)
  done

let test_overlay_fixpoint_backward_reference () =
  (* The override reads a net that is topologically *after* the target:
     z2 = NOT y; override on buffer z1 (driven by x) makes z1 take z2's
     value.  One sweep computes z2 from stale values; the fixpoint must
     settle so that z1 = NOT y. *)
  let b = Builder.create () in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  let z1 = Builder.buf_ b ~name:"z1" x in
  let z2 = Builder.not_ b ~name:"z2" y in
  Builder.mark_output b z1;
  Builder.mark_output b z2;
  let net = Builder.finalize b in
  let pats = Pattern.exhaustive ~npis:2 in
  let overlay =
    [ { Logic_sim.target = z1; behave = (fun ~computed:_ ~value_of ~driven_of:_ ~base:_ -> value_of z2) } ]
  in
  let r = Logic_sim.responses_overlay net pats overlay in
  for p = 0 to 3 do
    let y_v = p land 2 <> 0 in
    Alcotest.(check bool) "z1 = not y" (not y_v) (Bitvec.get r.(0) p)
  done

let test_responses_and_diff () =
  let net = Generators.c17 () in
  let pats = Pattern.exhaustive ~npis:5 in
  let expected = Logic_sim.responses net pats in
  Alcotest.(check (list (pair int (list int)))) "no diff" []
    (Logic_sim.diff_outputs expected expected);
  let g16 = Option.get (Netlist.find net "G16") in
  let observed = Logic_sim.responses_overlay net pats [ Logic_sim.force g16 false ] in
  let diffs = Logic_sim.diff_outputs expected observed in
  Alcotest.(check bool) "some diffs" true (diffs <> []);
  (* Every reported diff is a real mismatch, and none is missed. *)
  List.iter
    (fun (p, pos) ->
      List.iter
        (fun oi ->
          Alcotest.(check bool) "real mismatch" true
            (Bitvec.get expected.(oi) p <> Bitvec.get observed.(oi) p))
        pos)
    diffs;
  let reported = List.concat_map (fun (p, pos) -> List.map (fun o -> (p, o)) pos) diffs in
  for p = 0 to Pattern.count pats - 1 do
    for oi = 0 to Netlist.num_pos net - 1 do
      if Bitvec.get expected.(oi) p <> Bitvec.get observed.(oi) p then
        Alcotest.(check bool) "reported" true (List.mem (p, oi) reported)
    done
  done

let test_diff_outputs_order () =
  (* The word-level rewrite must keep the documented order: diffs sorted
     by ascending pattern index, each with its failing POs ascending —
     downstream datalog construction and report text depend on it. *)
  let net = Generators.c17 () in
  let pats = Pattern.exhaustive ~npis:5 in
  let expected = Logic_sim.responses net pats in
  let g10 = Option.get (Netlist.find net "G10") in
  let g11 = Option.get (Netlist.find net "G11") in
  let observed =
    Logic_sim.responses_overlay net pats
      [ Logic_sim.force g10 true; Logic_sim.force g11 false ]
  in
  let diffs = Logic_sim.diff_outputs expected observed in
  Alcotest.(check bool) "some diffs" true (diffs <> []);
  let patterns = List.map fst diffs in
  Alcotest.(check (list int)) "patterns ascending" (List.sort_uniq compare patterns)
    patterns;
  List.iter
    (fun (p, pos) ->
      Alcotest.(check bool) (Printf.sprintf "pattern %d: pos non-empty" p) true
        (pos <> []);
      Alcotest.(check (list int))
        (Printf.sprintf "pattern %d: pos ascending" p)
        (List.sort_uniq compare pos) pos)
    diffs;
  (* Pin the exact value on a known single-fault case: G16 stuck-0 on
     c17 fails pattern 1 (G1=1, others 0) at PO 0 only. *)
  let g16 = Option.get (Netlist.find net "G16") in
  let obs1 = Logic_sim.responses_overlay net pats [ Logic_sim.force g16 false ] in
  (match Logic_sim.diff_outputs expected obs1 with
  | (p0, pos0) :: _ ->
    Alcotest.(check bool) "first diff is the lowest failing pattern" true
      (List.for_all
         (fun (p, _) -> p >= p0)
         (Logic_sim.diff_outputs expected obs1));
    Alcotest.(check bool) "first diff has a PO" true (pos0 <> [])
  | [] -> Alcotest.fail "G16 sa0 must fail somewhere on exhaustive patterns")

let qcheck_block_vs_scalar_random_circuits =
  QCheck.Test.make ~name:"block sim matches scalar sim on random circuits" ~count:25
    QCheck.(pair (int_range 1 1000) (int_range 10 80))
    (fun (seed, gates) ->
      let net = Generators.random_logic ~gates ~pis:6 ~pos:3 ~seed in
      let pats = Pattern.random (Rng.create seed) ~npis:6 ~count:70 in
      List.for_all
        (fun block ->
          let words = Logic_sim.simulate_block net block in
          List.for_all
            (fun k ->
              let scalar =
                Logic_sim.simulate_pattern net
                  (Pattern.pattern pats (block.Pattern.base + k))
              in
              let ok = ref true in
              Netlist.iter_nets net (fun n ->
                  if words.(n) lsr k land 1 = 1 <> scalar.(n) then ok := false);
              !ok)
            (List.init block.Pattern.width Fun.id))
        (Pattern.blocks pats))

let suite =
  [
    ( "logic_sim",
      [
        Alcotest.test_case "scalar matches reference" `Quick
          test_simulate_pattern_matches_reference;
        Alcotest.test_case "block matches scalar" `Quick test_block_matches_scalar;
        Alcotest.test_case "empty overlay" `Quick test_overlay_empty_equals_plain;
        Alcotest.test_case "overlay force" `Quick test_overlay_force;
        Alcotest.test_case "overlay force PI" `Quick test_overlay_force_pi;
        Alcotest.test_case "overlay follow net" `Quick test_overlay_follow_net;
        Alcotest.test_case "overlay fixpoint backward ref" `Quick
          test_overlay_fixpoint_backward_reference;
        Alcotest.test_case "responses and diff" `Quick test_responses_and_diff;
        Alcotest.test_case "diff_outputs order pinned" `Quick test_diff_outputs_order;
        QCheck_alcotest.to_alcotest qcheck_block_vs_scalar_random_circuits;
      ] );
  ]

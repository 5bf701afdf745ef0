let v3 = Alcotest.testable Scalar_logic.pp_v3 Scalar_logic.v3_equal

let test_binary_agrees_with_bool () =
  let net = Generators.c17 () in
  let pats = Pattern.exhaustive ~npis:5 in
  for p = 0 to Pattern.count pats - 1 do
    let inputs = Pattern.pattern pats p in
    let bool_values = Logic_sim.simulate_pattern net inputs in
    let v3_values = Ternary_sim.simulate net (Array.map Scalar_logic.v3_of_bool inputs) in
    Netlist.iter_nets net (fun n ->
        Alcotest.check v3 "agrees" (Scalar_logic.v3_of_bool bool_values.(n)) v3_values.(n))
  done

let test_x_propagation () =
  (* z = AND(a, b): a=0 kills X on b; a=1 passes it. *)
  let b = Builder.create () in
  let a = Builder.input b "a" in
  let bb = Builder.input b "b" in
  let z = Builder.and_ b ~name:"z" [ a; bb ] in
  Builder.mark_output b z;
  let net = Builder.finalize b in
  let sim pa pb = (Ternary_sim.simulate net [| pa; pb |]).(z) in
  Alcotest.check v3 "0 kills X" Scalar_logic.V0 (sim Scalar_logic.V0 Scalar_logic.X);
  Alcotest.check v3 "1 passes X" Scalar_logic.X (sim Scalar_logic.V1 Scalar_logic.X);
  Alcotest.check v3 "X and X" Scalar_logic.X (sim Scalar_logic.X Scalar_logic.X)

let test_forced_overrides () =
  let net = Generators.c17 () in
  let g11 = Option.get (Netlist.find net "G11") in
  let inputs = Array.make 5 Scalar_logic.V1 in
  let values = Ternary_sim.simulate_forced net inputs [ (g11, Scalar_logic.X) ] in
  Alcotest.check v3 "forced X" Scalar_logic.X values.(g11);
  (* G16 = NAND(G2, G11) with G2=1: output = NOT G11 = X. *)
  let g16 = Option.get (Netlist.find net "G16") in
  Alcotest.check v3 "X propagates" Scalar_logic.X values.(g16)

let test_x_reach_exact_on_c17 () =
  (* x_reach over-approximates the outputs a flip can corrupt, and on
     each pattern contains every output an actual flip does corrupt. *)
  let net = Generators.c17 () in
  let pats = Pattern.exhaustive ~npis:5 in
  for p = 0 to Pattern.count pats - 1 do
    let inputs = Pattern.pattern pats p in
    let good = Logic_sim.simulate_pattern net inputs in
    Netlist.iter_nets net (fun site ->
        let reach = Ternary_sim.x_reach net inputs site in
        (* Actual flip effect via overlay simulation. *)
        let flipped =
          Logic_sim.responses_overlay net
            (Pattern.of_list ~npis:5 [ inputs ])
            [ Logic_sim.force site (not good.(site)) ]
        in
        Array.iteri
          (fun oi po ->
            let changed =
              Bitvec.get flipped.(oi) 0
              <> (Logic_sim.simulate_pattern net inputs).(po)
            in
            if changed then
              Alcotest.(check bool)
                (Printf.sprintf "flip of %s seen at %s" (Netlist.name net site)
                   (Netlist.name net po))
                true (List.mem oi reach))
          (Netlist.pos net))
  done

let test_pi_width_check () =
  let net = Generators.c17 () in
  Alcotest.check_raises "width" (Invalid_argument "Ternary_sim: PI vector width mismatch")
    (fun () -> ignore (Ternary_sim.simulate net [| Scalar_logic.V0 |]))

let suite =
  [
    ( "ternary_sim",
      [
        Alcotest.test_case "binary agrees with bool sim" `Quick test_binary_agrees_with_bool;
        Alcotest.test_case "x propagation" `Quick test_x_propagation;
        Alcotest.test_case "forced overrides" `Quick test_forced_overrides;
        Alcotest.test_case "x_reach covers real flips (c17)" `Quick test_x_reach_exact_on_c17;
        Alcotest.test_case "pi width check" `Quick test_pi_width_check;
      ] );
  ]

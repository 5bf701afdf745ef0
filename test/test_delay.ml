(* o = NOT a: the simplest circuit with visible transitions. *)
let inverter () =
  let b = Builder.create () in
  let a = Builder.input b "a" in
  let o = Builder.not_ b ~name:"o" a in
  Builder.mark_output b o;
  (Builder.finalize b, o)

let mk_pats l = Pattern.of_list ~npis:1 (List.map (fun v -> [| v |]) l)

let test_loc_pairs () =
  let pats = mk_pats [ false; true; true; false ] in
  let launch, capture = Delay.loc_pairs pats in
  Alcotest.(check int) "count" 3 (Pattern.count launch);
  Alcotest.(check string) "launch 0" "0" (Pattern.to_string launch 0);
  Alcotest.(check string) "capture 0" "1" (Pattern.to_string capture 0);
  Alcotest.(check string) "capture 2" "0" (Pattern.to_string capture 2);
  Alcotest.check_raises "too short"
    (Invalid_argument "Delay.loc_pairs: need at least two patterns") (fun () ->
      ignore (Delay.loc_pairs (mk_pats [ true ])))

let test_slow_rise_semantics () =
  let net, o = inverter () in
  (* Input sequence 1,0: o transitions 0 -> 1 on the capture cycle; a
     slow-to-rise o stays 0. *)
  let pats = mk_pats [ true; false ] in
  let launch, capture = Delay.loc_pairs pats in
  let r = Delay.observed_responses net ~launch ~capture [ Delay.Slow_rise o ] in
  Alcotest.(check bool) "rise suppressed" false (Bitvec.get r.(0) 0);
  (* Falling direction unaffected: 0,1 -> o falls 1 -> 0, observed 0. *)
  let launch2, capture2 = Delay.loc_pairs (mk_pats [ false; true ]) in
  let r2 = Delay.observed_responses net ~launch:launch2 ~capture:capture2 [ Delay.Slow_rise o ] in
  Alcotest.(check bool) "fall unaffected" false (Bitvec.get r2.(0) 0)

let test_slow_fall_semantics () =
  let net, o = inverter () in
  let launch, capture = Delay.loc_pairs (mk_pats [ false; true ]) in
  let r = Delay.observed_responses net ~launch ~capture [ Delay.Slow_fall o ] in
  Alcotest.(check bool) "fall suppressed" true (Bitvec.get r.(0) 0);
  let launch2, capture2 = Delay.loc_pairs (mk_pats [ true; false ]) in
  let r2 = Delay.observed_responses net ~launch:launch2 ~capture:capture2 [ Delay.Slow_fall o ] in
  Alcotest.(check bool) "rise unaffected" true (Bitvec.get r2.(0) 0)

let test_slow_both () =
  let net, o = inverter () in
  (* Slow in both directions: the capture cycle always shows the launch
     value. *)
  let launch, capture = Delay.loc_pairs (mk_pats [ true; false; true; true ]) in
  let r = Delay.observed_responses net ~launch ~capture [ Delay.Slow o ] in
  for p = 0 to 2 do
    let launch_value = not (Pattern.get launch p 0) in
    Alcotest.(check bool) (Printf.sprintf "pair %d" p) launch_value (Bitvec.get r.(0) p)
  done

let test_no_transition_no_failure () =
  (* Holding the input constant produces no failures whatever the slow
     defect. *)
  let net, o = inverter () in
  let launch, capture = Delay.loc_pairs (mk_pats [ true; true; true ]) in
  let expected = Logic_sim.responses net capture in
  List.iter
    (fun d ->
      let r = Delay.observed_responses net ~launch ~capture [ d ] in
      Alcotest.(check bool) "no failure" true (Array.for_all2 Bitvec.equal expected r))
    [ Delay.Slow_rise o; Delay.Slow_fall o; Delay.Slow o ]

let test_diagnose_slow_defect () =
  (* End to end on an adder: a slow carry is located by the unchanged
     engine. *)
  let net = Generators.ripple_adder 8 in
  let pats = Campaign.test_set net in
  let launch, capture = Delay.loc_pairs pats in
  let site = Option.get (Netlist.find net "fa3_co") in
  let defect = Delay.Slow site in
  let expected = Logic_sim.responses net capture in
  let observed = Delay.observed_responses net ~launch ~capture [ defect ] in
  let dlog = Datalog.of_responses ~expected ~observed in
  Alcotest.(check bool) "failures" true (Datalog.num_failing dlog > 0);
  let r = Noassume.diagnose_session (Session.create net capture) dlog in
  let q =
    Metrics.evaluate net
      ~injected:[ Defect.Stuck (site, true) ]
      ~callouts:(Noassume.callout_nets r)
  in
  Alcotest.(check bool) "located" true (q.Metrics.hits = 1)

let test_contributing () =
  let net, o = inverter () in
  let launch, capture = Delay.loc_pairs (mk_pats [ true; false ]) in
  (* Slow_rise fires on this transition; Slow_fall does not. *)
  let ds = [ Delay.Slow_fall o; Delay.Slow_rise o ] in
  (* Both defects on one net is double-override; use separate nets in
     general — here the rise defect masks the question, so instead test
     with a defect that cannot fire. *)
  let c = Delay.contributing net ~launch ~capture [ List.hd ds ] in
  Alcotest.(check int) "slow-fall silent on rising pair" 0 (List.length c);
  let c2 = Delay.contributing net ~launch ~capture [ List.nth ds 1 ] in
  Alcotest.(check int) "slow-rise contributes" 1 (List.length c2)

let test_describe_and_random () =
  let net, o = inverter () in
  Alcotest.(check string) "describe" "slow-to-rise at o" (Delay.describe net (Delay.Slow_rise o));
  let rng = Rng.create 99 in
  for _ = 1 to 50 do
    let d = Delay.random rng net in
    Alcotest.(check bool) "site not PI" false (Netlist.is_pi net (Delay.site d))
  done

let suite =
  [
    ( "delay",
      [
        Alcotest.test_case "loc pairs" `Quick test_loc_pairs;
        Alcotest.test_case "slow-to-rise" `Quick test_slow_rise_semantics;
        Alcotest.test_case "slow-to-fall" `Quick test_slow_fall_semantics;
        Alcotest.test_case "slow both edges" `Quick test_slow_both;
        Alcotest.test_case "no transition no failure" `Quick test_no_transition_no_failure;
        Alcotest.test_case "diagnose slow defect" `Quick test_diagnose_slow_defect;
        Alcotest.test_case "contributing" `Quick test_contributing;
        Alcotest.test_case "describe/random" `Quick test_describe_and_random;
      ] );
  ]

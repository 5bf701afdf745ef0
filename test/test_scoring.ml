let problem defects =
  let net = Generators.c17 () in
  let pats = Pattern.exhaustive ~npis:5 in
  let expected = Logic_sim.responses net pats in
  let observed = Injection.observed_responses net pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  (net, pats, dlog)

let g net name = Option.get (Netlist.find net name)

let test_truth_scores_perfect () =
  (* Scoring the actual injected overlay against its own datalog is a
     perfect match. *)
  let net = Generators.c17 () in
  let defects =
    [
      Defect.Stuck (g net "G10", true);
      Defect.Bridge { victim = g net "G19"; aggressor = g net "G10"; kind = Defect.Dominant };
    ]
  in
  let _, pats, dlog = problem defects in
  let s = Reference.evaluate net pats dlog (Defect.overlay_all defects) in
  Alcotest.(check int) "penalty 0" 0 (Scoring.penalty s);
  Alcotest.(check int) "explains all" (Array.length (Datalog.observations dlog))
    (s.explained + s.missed)

let test_empty_overlay_misses_everything () =
  let net = Generators.c17 () in
  let _, pats, dlog = problem [ Defect.Stuck (g net "G16", false) ] in
  let s = Reference.evaluate net pats dlog [] in
  Alcotest.(check int) "explained 0" 0 s.Scoring.explained;
  Alcotest.(check int) "missed all" (Array.length (Datalog.observations dlog))
    s.Scoring.missed;
  Alcotest.(check int) "no spurious" 0 (s.Scoring.spurious_fail + s.Scoring.spurious_pass)

let test_single_stuck_multiplet () =
  let net = Generators.c17 () in
  let g16 = g net "G16" in
  let _, pats, dlog = problem [ Defect.Stuck (g16, true) ] in
  let s = Scoring.evaluate_multiplet (Scoring.create (Session.create net pats) dlog)
      [ { Fault_list.site = g16; stuck = true } ] in
  Alcotest.(check bool) "perfect" true (Scoring.penalty s = 0)

let test_byzantine_overlay () =
  (* Both polarities of one site turn into a flip override. *)
  let overlay =
    Scoring.overlay_of_multiplet
      [ { Fault_list.site = 5; stuck = false }; { Fault_list.site = 5; stuck = true } ]
  in
  Alcotest.(check int) "single override" 1 (List.length overlay);
  let ov = List.hd overlay in
  Alcotest.(check int) "target" 5 ov.Logic_sim.target;
  let v =
    ov.Logic_sim.behave ~computed:0b1010 ~value_of:(fun _ -> 0) ~driven_of:(fun _ -> 0)
      ~base:0
  in
  Alcotest.(check int) "flips" (lnot 0b1010) v

let test_byzantine_explains_intermittent () =
  (* A flip multiplet on the true intermittent site misses nothing. *)
  let net = Generators.c17 () in
  let g16 = g net "G16" in
  let _, pats, dlog = problem [ Defect.Intermittent { site = g16; salt = 3; rate_pct = 40 } ] in
  let s =
    Scoring.evaluate_multiplet (Scoring.create (Session.create net pats) dlog)
      [ { Fault_list.site = g16; stuck = false }; { Fault_list.site = g16; stuck = true } ]
  in
  Alcotest.(check int) "no misses" 0 s.Scoring.missed

let test_penalty_ordering () =
  let s0 = { Scoring.explained = 10; missed = 0; spurious_fail = 0; spurious_pass = 0 } in
  let s1 = { s0 with missed = 1 } in
  let s2 = { s0 with spurious_pass = 9 } in
  Alcotest.(check bool) "perfect beats missed" true (Scoring.compare_score s0 s1 < 0);
  Alcotest.(check bool) "missing one beats 9 spurious? no: 10 > 9" true
    (Scoring.compare_score s2 s1 < 0);
  Alcotest.(check int) "penalty formula" 10 (Scoring.penalty s1);
  Alcotest.(check int) "penalty spurious" 9 (Scoring.penalty s2);
  Alcotest.(check bool) "spurious_fail weighs double" true
    (Scoring.penalty { s0 with spurious_fail = 3 } = 6)

let test_compare_ties () =
  let a = { Scoring.explained = 5; missed = 1; spurious_fail = 0; spurious_pass = 0 } in
  let b = { Scoring.explained = 9; missed = 0; spurious_fail = 5; spurious_pass = 0 } in
  (* Equal penalty (10 each): fewer spurious wins. *)
  Alcotest.(check int) "penalties equal" (Scoring.penalty a) (Scoring.penalty b);
  Alcotest.(check bool) "fewer spurious first" true (Scoring.compare_score a b < 0)

let test_pp () =
  let s = { Scoring.explained = 3; missed = 1; spurious_fail = 2; spurious_pass = 4 } in
  Alcotest.(check string) "pp" "explained 3, missed 1, spurious 2+4 (penalty 18)"
    (Format.asprintf "%a" Scoring.pp s)

let suite =
  [
    ( "scoring",
      [
        Alcotest.test_case "truth scores perfect" `Quick test_truth_scores_perfect;
        Alcotest.test_case "empty overlay misses all" `Quick
          test_empty_overlay_misses_everything;
        Alcotest.test_case "single stuck multiplet" `Quick test_single_stuck_multiplet;
        Alcotest.test_case "byzantine overlay" `Quick test_byzantine_overlay;
        Alcotest.test_case "byzantine explains intermittent" `Quick
          test_byzantine_explains_intermittent;
        Alcotest.test_case "penalty ordering" `Quick test_penalty_ordering;
        Alcotest.test_case "compare ties" `Quick test_compare_ties;
        Alcotest.test_case "pp" `Quick test_pp;
      ] );
  ]

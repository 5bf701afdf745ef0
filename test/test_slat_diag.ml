let g net name = Option.get (Netlist.find net name)

let problem ?(net = Generators.c17 ()) ?(pats = Pattern.exhaustive ~npis:5) defects =
  let expected = Logic_sim.responses net pats in
  let observed = Injection.observed_responses net pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  (net, pats, dlog, Explain.build_session (Session.create net pats) dlog)

let test_single_stuck_works () =
  let net = Generators.c17 () in
  let g16 = g net "G16" in
  let net, _, _, m = problem ~net [ Defect.Stuck (g16, true) ] in
  let r = Slat_diag.diagnose m in
  Alcotest.(check int) "nothing ignored" 0
    (List.length r.Slat_diag.classification.Slat_diag.non_slat);
  let q =
    Metrics.evaluate net ~injected:[ Defect.Stuck (g16, true) ]
      ~callouts:(Slat_diag.callout_nets r)
  in
  Alcotest.(check bool) "hit" true (q.Metrics.hits = 1)

let test_covers_all_slat_patterns () =
  let net = Generators.ripple_adder 8 in
  let rng = Rng.create 71 in
  let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:64 in
  let defects = Injection.random_defects rng net Injection.default_mix 2 in
  let net, _, dlog, m = problem ~net ~pats defects in
  ignore net;
  ignore dlog;
  let r = Slat_diag.diagnose m in
  let classification = Slat_diag.classify m in
  (* The split diagnose derives from its exact-pattern sets is the one
     [classify] finds on its own, and every covered pattern is SLAT. *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "covered is slat" true (List.mem p classification.Slat_diag.slat))
    r.Slat_diag.covered_patterns;
  Alcotest.(check (list int)) "same SLAT patterns" classification.Slat_diag.slat
    r.Slat_diag.classification.Slat_diag.slat;
  Alcotest.(check (list int)) "ignored = non-slat" classification.Slat_diag.non_slat
    r.Slat_diag.classification.Slat_diag.non_slat

let test_ignores_non_slat () =
  (* An intermittent defect yields non-SLAT patterns whenever two flips
     land on one pattern's outputs inconsistently; at minimum the
     ignored list equals the non-SLAT classification (checked above) and
     the score's missed count bounds what was thrown away. *)
  let net = Generators.ripple_adder 8 in
  let rng = Rng.create 72 in
  let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:64 in
  let defects =
    [
      Defect.Intermittent { site = g net "fa2_axb"; salt = 4; rate_pct = 50 };
      Defect.Stuck (g net "fa6_c1", true);
    ]
  in
  let _, _, _, m = problem ~net ~pats defects in
  let r = Slat_diag.diagnose m in
  (* Diagnose runs and produces a multiplet no larger than the cap. *)
  Alcotest.(check bool) "bounded" true (List.length r.Slat_diag.multiplet <= 12)

let test_empty_datalog () =
  let net = Generators.c17 () in
  let pats = Pattern.exhaustive ~npis:5 in
  let resp = Logic_sim.responses net pats in
  let dlog = Datalog.of_responses ~expected:resp ~observed:resp in
  let m = Explain.build_session (Session.create net pats) dlog in
  let r = Slat_diag.diagnose m in
  Alcotest.(check int) "empty" 0 (List.length r.Slat_diag.multiplet)

let suite =
  [
    ( "slat_diag",
      [
        Alcotest.test_case "single stuck works" `Quick test_single_stuck_works;
        Alcotest.test_case "covers all SLAT patterns" `Quick test_covers_all_slat_patterns;
        Alcotest.test_case "ignores non-SLAT" `Quick test_ignores_non_slat;
        Alcotest.test_case "empty datalog" `Quick test_empty_datalog;
      ] );
  ]

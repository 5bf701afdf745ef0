let g net name = Option.get (Netlist.find net name)

let problem ?(net = Generators.c17 ()) ?(pats = Pattern.exhaustive ~npis:5) defects =
  let expected = Logic_sim.responses net pats in
  let observed = Injection.observed_responses net pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  (net, pats, dlog)

let test_single_stuck_exact_localisation () =
  let net = Generators.c17 () in
  let g16 = g net "G16" in
  let net, pats, dlog = problem ~net [ Defect.Stuck (g16, true) ] in
  let r = Noassume.diagnose_session (Session.create net pats) dlog in
  (* G16 sa1 collapses with G2 sa0 etc.; the callout must be in the
     equivalence neighbourhood, and scored as a hit. *)
  let q =
    Metrics.evaluate net ~injected:[ Defect.Stuck (g16, true) ]
      ~callouts:(Noassume.callout_nets r)
  in
  Alcotest.(check bool) "hit" true q.Metrics.success;
  Alcotest.(check bool) "perfect score" true (Scoring.perfect r.Noassume.score);
  Alcotest.(check int) "single callout" 1 (List.length r.Noassume.callouts)

let test_two_disjoint_stucks () =
  (* Stucks in the disjoint cones of an 8-bit adder: both located. *)
  let net = Generators.ripple_adder 8 in
  let s0 = g net "fa0_axb" in
  let s7 = g net "fa7_axb" in
  let pats = Pattern.random (Rng.create 61) ~npis:(Netlist.num_pis net) ~count:64 in
  let defects = [ Defect.Stuck (s0, true); Defect.Stuck (s7, false) ] in
  let net, pats, dlog = problem ~net ~pats defects in
  let r = Noassume.diagnose_session (Session.create net pats) dlog in
  let q = Metrics.evaluate net ~injected:defects ~callouts:(Noassume.callout_nets r) in
  Alcotest.(check bool) "both found" true q.Metrics.success;
  Alcotest.(check bool) "diagnosability 1" true (q.Metrics.diagnosability = 1.0)

let test_deterministic () =
  let net = Generators.c17 () in
  let defects = [ Defect.Stuck (g net "G10", true); Defect.Stuck (g net "G19", false) ] in
  let net, pats, dlog = problem ~net defects in
  let a = Noassume.diagnose_session (Session.create net pats) dlog in
  let b = Noassume.diagnose_session (Session.create net pats) dlog in
  Alcotest.(check bool) "same multiplet" true (a.Noassume.multiplet = b.Noassume.multiplet);
  Alcotest.(check bool) "same callouts" true
    (Noassume.callout_nets a = Noassume.callout_nets b)

let test_dominant_bridge_confirmed () =
  (* The bridge validation pass should find the aggressor of a dominant
     bridge. *)
  let net = Generators.ripple_adder 8 in
  let victim = g net "fa3_axb" in
  let aggressor = g net "fa1_c1" in
  let pats = Pattern.random (Rng.create 62) ~npis:(Netlist.num_pis net) ~count:96 in
  let defects = [ Defect.Bridge { victim; aggressor; kind = Defect.Dominant } ] in
  let net, pats, dlog = problem ~net ~pats defects in
  let r = Noassume.diagnose_session (Session.create net pats) dlog in
  let q = Metrics.evaluate net ~injected:defects ~callouts:(Noassume.callout_nets r) in
  Alcotest.(check bool) "victim located" true (q.Metrics.hits = 1)

let test_intermittent_byzantine_callout () =
  let net = Generators.c17 () in
  let g11 = g net "G11" in
  let defects = [ Defect.Intermittent { site = g11; salt = 9; rate_pct = 50 } ] in
  let net, pats, dlog = problem ~net defects in
  let r = Noassume.diagnose_session (Session.create net pats) dlog in
  let q = Metrics.evaluate net ~injected:defects ~callouts:(Noassume.callout_nets r) in
  Alcotest.(check bool) "site located" true (q.Metrics.hits = 1)

let test_empty_datalog () =
  let net = Generators.c17 () in
  let pats = Pattern.exhaustive ~npis:5 in
  let r = Logic_sim.responses net pats in
  let dlog = Datalog.of_responses ~expected:r ~observed:r in
  let result = Noassume.diagnose_session (Session.create net pats) dlog in
  Alcotest.(check int) "empty multiplet" 0 (List.length result.Noassume.multiplet);
  Alcotest.(check int) "no callouts" 0 (List.length result.Noassume.callouts);
  Alcotest.(check bool) "perfect trivially" true (Scoring.perfect result.Noassume.score)

let test_max_multiplet_respected () =
  let net = Generators.ripple_adder 8 in
  let rng = Rng.create 63 in
  let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:64 in
  let defects = Injection.random_defects rng net Injection.default_mix 4 in
  let net, pats, dlog = problem ~net ~pats defects in
  let config = { Noassume.default_config with max_multiplet = 2 } in
  let r = Noassume.diagnose_session ~config (Session.create net pats) dlog in
  Alcotest.(check bool) "capped" true (List.length r.Noassume.multiplet <= 2)

let test_config_variants_run () =
  (* Every ablation configuration completes and produces a result on an
     interacting 3-defect case. *)
  let net = Generators.ripple_adder 8 in
  let rng = Rng.create 64 in
  let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:64 in
  let defects = Injection.random_defects rng net Injection.default_mix 3 in
  let net, pats, dlog = problem ~net ~pats defects in
  List.iter
    (fun config ->
      let r = Noassume.diagnose_session ~config (Session.create net pats) dlog in
      Alcotest.(check bool) "has candidates" true (r.Noassume.candidates_considered > 0))
    [
      Noassume.default_config;
      { Noassume.default_config with validate = false };
      { Noassume.default_config with tie_break = false };
      { Noassume.default_config with per_pattern = true };
    ]

let test_callout_order_by_explained () =
  let net = Generators.ripple_adder 8 in
  let rng = Rng.create 65 in
  let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:64 in
  let defects = Injection.random_defects rng net Injection.default_mix 3 in
  let net, pats, dlog = problem ~net ~pats defects in
  let r = Noassume.diagnose_session (Session.create net pats) dlog in
  let explained = List.map (fun c -> c.Noassume.explained_obs) r.Noassume.callouts in
  Alcotest.(check (list int)) "descending" (List.sort (fun a b -> compare b a) explained)
    explained

let test_refinement_never_worsens () =
  (* With validation on, the final score's penalty is never worse than
     the raw greedy multiplet's. *)
  let net = Generators.ripple_adder 8 in
  let rng = Rng.create 66 in
  let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:64 in
  for _ = 1 to 5 do
    let defects = Injection.random_defects rng net Injection.default_mix 3 in
    let expected = Logic_sim.responses net pats in
    let observed = Injection.observed_responses net pats defects in
    let dlog = Datalog.of_responses ~expected ~observed in
    if Datalog.num_failing dlog > 0 then begin
      let m = Explain.build_session (Session.create net pats) dlog in
      let raw =
        Noassume.diagnose_matrix
          ~config:{ Noassume.default_config with validate = false }
          m
      in
      let refined = Noassume.diagnose_matrix m in
      Alcotest.(check bool) "refinement helps or holds" true
        (Scoring.penalty refined.Noassume.score <= Scoring.penalty raw.Noassume.score)
    end
  done

let suite =
  [
    ( "noassume",
      [
        Alcotest.test_case "single stuck exact" `Quick test_single_stuck_exact_localisation;
        Alcotest.test_case "two disjoint stucks" `Quick test_two_disjoint_stucks;
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        Alcotest.test_case "dominant bridge located" `Quick test_dominant_bridge_confirmed;
        Alcotest.test_case "intermittent byzantine" `Quick test_intermittent_byzantine_callout;
        Alcotest.test_case "empty datalog" `Quick test_empty_datalog;
        Alcotest.test_case "max multiplet respected" `Quick test_max_multiplet_respected;
        Alcotest.test_case "config variants run" `Quick test_config_variants_run;
        Alcotest.test_case "callout order" `Quick test_callout_order_by_explained;
        Alcotest.test_case "refinement never worsens" `Quick test_refinement_never_worsens;
      ] );
  ]

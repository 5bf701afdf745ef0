let g net name = Option.get (Netlist.find net name)

let problem ?(net = Generators.c17 ()) ?(pats = Pattern.exhaustive ~npis:5) defects =
  let expected = Logic_sim.responses net pats in
  let observed = Injection.observed_responses net pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  (net, pats, dlog)

let test_single_stuck_top_ranked () =
  let net = Generators.c17 () in
  let g16 = g net "G16" in
  let net, pats, dlog = problem ~net [ Defect.Stuck (g16, true) ] in
  let r = Single_diag.diagnose_session (Session.create net pats) dlog in
  (* The best candidates score perfectly and include the (collapsed
     representative of the) true fault. *)
  List.iter
    (fun (rk : Single_diag.ranked) ->
      Alcotest.(check bool) "best is perfect" true (Scoring.penalty rk.score = 0))
    r.Single_diag.best;
  let q =
    Metrics.evaluate net ~injected:[ Defect.Stuck (g16, true) ]
      ~callouts:(Single_diag.callout_nets r)
  in
  Alcotest.(check bool) "hit" true (q.Metrics.hits = 1)

let test_ranking_sorted_and_complete () =
  let net = Generators.c17 () in
  let net, pats, dlog = problem ~net [ Defect.Stuck (g net "G10", false) ] in
  let session = Session.create net pats in
  let r = Single_diag.diagnose_session session dlog in
  let ranked = List.map (fun (r : Single_diag.ranked) -> r.fault) r.Single_diag.ranking in
  let sort = List.sort Fault_list.compare_fault in
  Alcotest.(check bool) "every representative ranked once" true
    (sort ranked = sort (Array.to_list (Session.representatives session)));
  let rec sorted = function
    | (a : Single_diag.ranked) :: (b :: _ as rest) ->
      Scoring.compare_score a.score b.score <= 0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted r.Single_diag.ranking)

let test_best_nonempty_and_tied () =
  let net = Generators.c17 () in
  let net, pats, dlog = problem ~net [ Defect.Stuck (g net "G19", true) ] in
  let r = Single_diag.diagnose_session (Session.create net pats) dlog in
  Alcotest.(check bool) "nonempty" true (r.Single_diag.best <> []);
  let top = List.hd r.Single_diag.best in
  List.iter
    (fun (rk : Single_diag.ranked) ->
      Alcotest.(check int) "tied" 0 (Scoring.compare_score top.score rk.score))
    r.Single_diag.best

let test_breaks_under_two_defects () =
  (* The motivating failure: two stucks in structurally disjoint cones
     (bit 0 and bit 7 of an adder) fail outputs no single fault reaches
     together, so no single fault matches perfectly.  (Beware when
     crafting such cases: two faults with a shared side input can be
     jointly equivalent to a single fault — e.g. on c17, G10 sa1 with
     G11 sa1 is exactly G3 sa0.) *)
  let net = Generators.ripple_adder 8 in
  let pats = Pattern.random (Rng.create 55) ~npis:(Netlist.num_pis net) ~count:64 in
  let defects =
    [ Defect.Stuck (g net "fa0_axb", true); Defect.Stuck (g net "fa7_axb", true) ]
  in
  let net, pats, dlog = problem ~net ~pats defects in
  let r = Single_diag.diagnose_session (Session.create net pats) dlog in
  List.iter
    (fun (rk : Single_diag.ranked) ->
      Alcotest.(check bool) "imperfect" false (Scoring.penalty rk.score = 0))
    r.Single_diag.best

let suite =
  [
    ( "single_diag",
      [
        Alcotest.test_case "single stuck top ranked" `Quick test_single_stuck_top_ranked;
        Alcotest.test_case "ranking sorted/complete" `Quick
          test_ranking_sorted_and_complete;
        Alcotest.test_case "best nonempty and tied" `Quick test_best_nonempty_and_tied;
        Alcotest.test_case "breaks under two defects" `Quick test_breaks_under_two_defects;
      ] );
  ]

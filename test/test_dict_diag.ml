let g net name = Option.get (Netlist.find net name)

let problem ?(net = Generators.c17 ()) ?(pats = Pattern.exhaustive ~npis:5) defects =
  let expected = Logic_sim.responses net pats in
  let observed = Injection.observed_responses net pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  (net, pats, dlog)

let test_sizes () =
  let net = Generators.c17 () in
  let pats = Pattern.exhaustive ~npis:5 in
  let session = Session.create net pats in
  let full = Dict_diag.build_session Dict_diag.Full_response session in
  let pf = Dict_diag.build_session Dict_diag.Pass_fail session in
  Alcotest.(check int) "same entries" (Dict_diag.num_entries full)
    (Dict_diag.num_entries pf);
  (* c17: 2 POs, so the full dictionary is exactly 2x the pass/fail one. *)
  Alcotest.(check int) "full = npos x passfail" (2 * Dict_diag.size_bits pf)
    (Dict_diag.size_bits full);
  Alcotest.(check int) "bit accounting" (Dict_diag.num_entries pf * 32)
    (Dict_diag.size_bits pf)

let test_full_matches_single_diag () =
  (* A full-response dictionary lookup must agree with the effect-cause
     single-fault baseline: same scores, same best set. *)
  let net = Generators.c17 () in
  let g16 = g net "G16" in
  let net, pats, dlog = problem ~net [ Defect.Stuck (g16, true) ] in
  let dict = Dict_diag.build_session Dict_diag.Full_response (Session.create net pats) in
  let d = Dict_diag.diagnose dict dlog in
  let s = Single_diag.diagnose_session (Session.create net pats) dlog in
  Alcotest.(check (list int)) "same callouts" (Single_diag.callout_nets s)
    (Single_diag.callout_nets d);
  let top_d = List.hd d.Single_diag.best and top_s = List.hd s.Single_diag.best in
  Alcotest.(check int) "same score" 0 (Scoring.compare_score top_d.score top_s.score)

let test_single_stuck_hit () =
  let net = Generators.ripple_adder 8 in
  let pats = Pattern.random (Rng.create 81) ~npis:(Netlist.num_pis net) ~count:64 in
  let site = g net "fa4_c1" in
  let net, pats, dlog = problem ~net ~pats [ Defect.Stuck (site, true) ] in
  List.iter
    (fun flavour ->
      let dict = Dict_diag.build_session flavour (Session.create net pats) in
      let r = Dict_diag.diagnose dict dlog in
      let q =
        Metrics.evaluate net ~injected:[ Defect.Stuck (site, true) ]
          ~callouts:(Single_diag.callout_nets r)
      in
      Alcotest.(check bool) "hit" true (q.Metrics.hits = 1))
    [ Dict_diag.Full_response; Dict_diag.Pass_fail ]

let test_passfail_coarser_than_full () =
  (* Pass/fail matching can only tie or do worse than full-response on
     the same case: its best set is a superset-or-equal in size. *)
  let net = Generators.c17 () in
  let net, pats, dlog = problem ~net [ Defect.Stuck (g net "G19", false) ] in
  let session = Session.create net pats in
  let diagnose flavour =
    Dict_diag.diagnose (Dict_diag.build_session flavour session) dlog
  in
  let full = diagnose Dict_diag.Full_response in
  let pf = diagnose Dict_diag.Pass_fail in
  Alcotest.(check bool) "coarser" true
    (List.length pf.Single_diag.best >= List.length full.Single_diag.best)

let test_pattern_count_check () =
  let net = Generators.c17 () in
  let pats = Pattern.exhaustive ~npis:5 in
  let dict = Dict_diag.build_session Dict_diag.Pass_fail (Session.create net pats) in
  let bad = Datalog.of_entries ~npatterns:5 ~npos:2 [ (1, [ 0 ]) ] in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Dict_diag.diagnose: datalog pattern count differs from dictionary")
    (fun () -> ignore (Dict_diag.diagnose dict bad))

let test_ranking_bounded () =
  let net = Generators.c17 () in
  let net, pats, dlog = problem ~net [ Defect.Stuck (g net "G10", true) ] in
  let dict = Dict_diag.build_session Dict_diag.Full_response (Session.create net pats) in
  let r = Dict_diag.diagnose ~keep:3 dict dlog in
  Alcotest.(check bool) "bounded" true (List.length r.Single_diag.ranking <= 3)

(* A die of two defects on a circuit with several pattern blocks (the
   last one partial) and several failing outputs per pattern. *)
let two_defect_die () =
  let net = Generators.random_logic ~gates:120 ~pis:8 ~pos:6 ~seed:17 in
  let pats = Pattern.random (Rng.create 17) ~npis:8 ~count:150 in
  let defects = [ Defect.Stuck (g net "g40", true); Defect.Stuck (g net "g95", false) ] in
  let net, pats, dlog = problem ~net ~pats defects in
  Alcotest.(check bool) "die fails" true (Datalog.num_failing dlog > 0);
  (net, pats, dlog)

(* Over a whole ranking, not just its head: looked up in a
   full-response dictionary and diagnosed by [Single_diag] on the same
   session, the die ranks every representative alike, with equal
   scores. *)
let test_full_ranking_matches_single_diag () =
  let net, pats, dlog = two_defect_die () in
  let session = Session.create net pats in
  let dict = Dict_diag.build_session Dict_diag.Full_response session in
  let keep = Dict_diag.num_entries dict in
  let d = Dict_diag.diagnose ~keep dict dlog in
  let s = Single_diag.diagnose_session ~keep session dlog in
  let of_dict = List.map (fun (r : Single_diag.ranked) -> (r.fault, r.score)) d.ranking in
  let of_single =
    List.map (fun (r : Single_diag.ranked) -> (r.fault, r.score)) s.ranking
  in
  Alcotest.(check int) "every entry ranked" keep (List.length of_dict);
  Alcotest.(check bool) "same ranking, same scores" true (of_dict = of_single)

(* Every pass/fail score against a pattern-by-pattern count: the
   fault's stuck line resimulated, a pattern predicted failing when any
   output differs. *)
let test_passfail_matches_per_pattern () =
  let net, pats, dlog = two_defect_die () in
  let dict = Dict_diag.build_session Dict_diag.Pass_fail (Session.create net pats) in
  let keep = Dict_diag.num_entries dict in
  let expected = Logic_sim.responses net pats in
  List.iter
    (fun (r : Single_diag.ranked) ->
      let f = r.fault in
      let observed =
        Injection.observed_responses net pats [ Defect.Stuck (f.site, f.stuck) ]
      in
      let explained = ref 0 and missed = ref 0 and spurious = ref 0 in
      for p = 0 to Pattern.count pats - 1 do
        let predicted =
          Array.exists2 (fun e o -> Bitvec.get e p <> Bitvec.get o p) expected observed
        in
        match (Datalog.is_failing dlog p, predicted) with
        | true, true -> incr explained
        | true, false -> incr missed
        | false, true -> incr spurious
        | false, false -> ()
      done;
      let want =
        {
          Scoring.explained = !explained;
          missed = !missed;
          spurious_fail = 0;
          spurious_pass = !spurious;
        }
      in
      Alcotest.(check bool) "score" true (r.score = want))
    (Dict_diag.diagnose ~keep dict dlog).ranking

let suite =
  [
    ( "dict_diag",
      [
        Alcotest.test_case "sizes" `Quick test_sizes;
        Alcotest.test_case "full matches single_diag" `Quick test_full_matches_single_diag;
        Alcotest.test_case "single stuck hit" `Quick test_single_stuck_hit;
        Alcotest.test_case "passfail coarser" `Quick test_passfail_coarser_than_full;
        Alcotest.test_case "pattern count check" `Quick test_pattern_count_check;
        Alcotest.test_case "ranking bounded" `Quick test_ranking_bounded;
        Alcotest.test_case "full ranking = single_diag's" `Quick
          test_full_ranking_matches_single_diag;
        Alcotest.test_case "passfail scores = per-pattern count" `Quick
          test_passfail_matches_per_pattern;
      ] );
  ]

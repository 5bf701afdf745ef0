let build_problem defects =
  let net = Generators.c17 () in
  let pats = Pattern.exhaustive ~npis:5 in
  let expected = Logic_sim.responses net pats in
  let observed = Injection.observed_responses net pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  (net, pats, dlog, Explain.build_session (Session.create net pats) dlog)

let g net name = Option.get (Netlist.find net name)

let test_pool_structure () =
  let net, _, dlog, m = build_problem [ Defect.Stuck (2, true) ] in
  ignore dlog;
  let cands = Explain.candidates m in
  (* Both polarities per site, ascending, no duplicates. *)
  let rec pairs i =
    if i + 1 < Array.length cands then begin
      if cands.(i).Fault_list.site = cands.(i + 1).Fault_list.site then
        Alcotest.(check bool) "polarity pair" true
          (cands.(i).Fault_list.stuck = false && cands.(i + 1).Fault_list.stuck = true);
      Alcotest.(check bool) "sorted" true
        (Fault_list.compare_fault cands.(i) cands.(i + 1) < 0);
      pairs (i + 1)
    end
  in
  pairs 0;
  (* Pool covers the fan-in cones of failing POs. *)
  Alcotest.(check bool) "nonempty" true (Array.length cands > 0);
  ignore net

let test_covers_matches_direct_simulation () =
  let net, pats, dlog, m = build_problem [ Defect.Stuck (6, true) ] in
  let obs = Explain.observations m in
  let sim = Fault_sim.create net in
  Array.iteri
    (fun c f ->
      let signature =
        Fault_sim.signature sim pats ~site:f.Fault_list.site ~stuck:f.Fault_list.stuck
      in
      Array.iteri
        (fun oi (ob : Datalog.observation) ->
          let covered = Bitvec.get (Explain.covers m c) oi in
          let flips = Bitvec.get signature.(ob.po) ob.pattern in
          Alcotest.(check bool)
            (Printf.sprintf "cand %d obs %d" c oi)
            flips covered)
        obs)
    (Explain.candidates m);
  ignore dlog

let test_exact_definition () =
  let net, pats, dlog, m = build_problem [ Defect.Stuck (6, false) ] in
  let failing = Explain.failing m in
  let sim = Fault_sim.create net in
  Array.iteri
    (fun c f ->
      let signature =
        Fault_sim.signature sim pats ~site:f.Fault_list.site ~stuck:f.Fault_list.stuck
      in
      Array.iteri
        (fun fp p ->
          let observed = Datalog.failing_pos dlog p in
          let predicted =
            List.filter
              (fun oi -> Bitvec.get signature.(oi) p)
              (List.init (Datalog.npos dlog) Fun.id)
          in
          Alcotest.(check bool)
            (Printf.sprintf "exact c=%d fp=%d" c fp)
            (predicted = observed)
            (Explain.exact m c fp))
        failing)
    (Explain.candidates m)

let test_true_site_covers_everything () =
  (* For a single stuck defect, the candidate equal to the defect covers
     every observation and is exact on every failing pattern. *)
  let net = Generators.c17 () in
  let g16 = g net "G16" in
  let _, _, _, m = build_problem [ Defect.Stuck (g16, true) ] in
  match Explain.find_candidate m { Fault_list.site = g16; stuck = true } with
  | None -> Alcotest.fail "true candidate not in pool"
  | Some c ->
    let nobs = Array.length (Explain.observations m) in
    Alcotest.(check int) "covers all" nobs (Bitvec.popcount (Explain.covers m c));
    Alcotest.(check int) "no spurious" 0 (Explain.mispredict_fail m c);
    Alcotest.(check int) "no pass mispredict" 0 (Explain.mispredict_pass m c);
    Array.iteri
      (fun fp _ -> Alcotest.(check bool) "exact" true (Explain.exact m c fp))
      (Explain.failing m)

let test_matched_spurious_counts () =
  let net = Generators.c17 () in
  let g16 = g net "G16" in
  let _, _, dlog, m = build_problem [ Defect.Stuck (g16, true) ] in
  let failing = Explain.failing m in
  (* matched sums to covered observations per candidate. *)
  Array.iteri
    (fun c _ ->
      let total_matched =
        Array.fold_left ( + ) 0 (Array.mapi (fun fp _ -> Explain.matched m c fp) failing)
      in
      Alcotest.(check int) "matched = covers popcount" (Bitvec.popcount (Explain.covers m c))
        total_matched;
      Array.iteri
        (fun fp p ->
          Alcotest.(check bool) "matched bounded" true
            (Explain.matched m c fp <= List.length (Datalog.failing_pos dlog p));
          Alcotest.(check bool) "spurious bounded" true
            (Explain.spurious m c fp
            <= Datalog.npos dlog - List.length (Datalog.failing_pos dlog p)))
        failing)
    (Explain.candidates m)

let test_find_candidate () =
  let _, _, _, m = build_problem [ Defect.Stuck (6, true) ] in
  Array.iteri
    (fun c f -> Alcotest.(check (option int)) "find" (Some c) (Explain.find_candidate m f))
    (Explain.candidates m);
  Alcotest.(check (option int)) "missing" None
    (Explain.find_candidate m { Fault_list.site = 10_000; stuck = false })

let suite =
  [
    ( "explain",
      [
        Alcotest.test_case "pool structure" `Quick test_pool_structure;
        Alcotest.test_case "covers = direct simulation" `Quick
          test_covers_matches_direct_simulation;
        Alcotest.test_case "exact definition" `Quick test_exact_definition;
        Alcotest.test_case "true site covers everything" `Quick
          test_true_site_covers_everything;
        Alcotest.test_case "matched/spurious counts" `Quick test_matched_spurious_counts;
        Alcotest.test_case "find_candidate" `Quick test_find_candidate;
      ] );
  ]

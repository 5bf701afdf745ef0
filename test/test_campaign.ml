let test_deterministic () =
  let net = Generators.c17 () in
  let run () =
    Campaign.run ~methods:Campaign.only_noassume ~name:"c17" net ~multiplicity:2
      ~trials:4 ~seed:99
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same outcome count" (List.length a.Campaign.outcomes)
    (List.length b.Campaign.outcomes);
  List.iter2
    (fun oa ob ->
      Alcotest.(check int) "same failing" oa.Campaign.num_failing ob.Campaign.num_failing;
      Alcotest.(check bool) "same slat fraction" true
        (oa.Campaign.slat_fraction = ob.Campaign.slat_fraction))
    a.Campaign.outcomes b.Campaign.outcomes

let test_methods_selection () =
  let net = Generators.c17 () in
  let c =
    Campaign.run ~methods:Campaign.classification_only ~name:"c17" net ~multiplicity:1
      ~trials:3 ~seed:7
  in
  List.iter
    (fun o ->
      Alcotest.(check bool) "no noassume" true (o.Campaign.noassume = None);
      Alcotest.(check bool) "no slat" true (o.Campaign.slat = None);
      Alcotest.(check bool) "no single" true (o.Campaign.single = None))
    c.Campaign.outcomes;
  let c2 =
    Campaign.run ~methods:Campaign.all_methods ~name:"c17" net ~multiplicity:1 ~trials:2
      ~seed:7
  in
  List.iter
    (fun o ->
      Alcotest.(check bool) "noassume present" true (o.Campaign.noassume <> None);
      Alcotest.(check bool) "slat present" true (o.Campaign.slat <> None);
      Alcotest.(check bool) "single present" true (o.Campaign.single <> None))
    c2.Campaign.outcomes

let test_every_outcome_has_failures () =
  let net = Generators.ripple_adder 8 in
  let c =
    Campaign.run ~methods:Campaign.classification_only ~name:"add8" net ~multiplicity:1
      ~trials:5 ~seed:13
  in
  List.iter
    (fun o -> Alcotest.(check bool) "failing > 0" true (o.Campaign.num_failing > 0))
    c.Campaign.outcomes;
  Alcotest.(check int) "trial count" 5 (List.length c.Campaign.outcomes)

let test_test_set_memoised () =
  let net = Generators.c17 () in
  let a = Campaign.test_set net in
  let b = Campaign.test_set net in
  Alcotest.(check bool) "physically shared" true (a == b);
  let r = Campaign.test_report net in
  Alcotest.(check bool) "report patterns shared" true (r.Tpg.patterns == a)

let test_qualities_accessor () =
  let net = Generators.c17 () in
  let c =
    Campaign.run ~methods:Campaign.only_noassume ~name:"c17" net ~multiplicity:1 ~trials:3
      ~seed:21
  in
  let qs = Campaign.qualities c (fun o -> o.Campaign.noassume) in
  Alcotest.(check int) "one per outcome" (List.length c.Campaign.outcomes) (List.length qs);
  Alcotest.(check int) "none for slat" 0
    (List.length (Campaign.qualities c (fun o -> o.Campaign.slat)))

let test_slat_fraction_single_defect_with_stuck_mix () =
  (* Stuck-only single defects are always SLAT-explainable. *)
  let net = Generators.c17 () in
  let mix = Option.get (Injection.mix_of_string "stuck") in
  let c =
    Campaign.run ~methods:Campaign.classification_only ~mix ~name:"c17" net
      ~multiplicity:1 ~trials:5 ~seed:31
  in
  Alcotest.(check bool) "all SLAT" true (Campaign.mean_slat_fraction c = 1.0)

let test_pattern_override () =
  let net = Generators.c17 () in
  let pats = Pattern.exhaustive ~npis:5 in
  let c =
    Campaign.run ~methods:Campaign.only_noassume ~patterns:pats ~name:"c17" net
      ~multiplicity:1 ~trials:2 ~seed:41
  in
  Alcotest.(check int) "ran" 2 (List.length c.Campaign.outcomes)

(* Fork-join workers inherit the caller's sink: a campaign whose trials
   fan out over four domains records the same work into the sink as one
   that runs them all on the caller.  Cache hit/miss splits (and the
   simulation paid for misses) and the parallel.* counters depend on
   drain order, so they are left out. *)
let test_sink_inherited_by_workers () =
  let net = Option.get (Generators.find_suite "rnd1k") in
  let patterns = Campaign.test_set net in
  let counters domains =
    let sk = Obs.sink () in
    Obs.with_sink sk (fun () ->
        ignore
          (Campaign.run ~methods:Campaign.only_noassume ~patterns ~domains ~name:"rnd1k"
             net ~multiplicity:2 ~trials:6 ~seed:3));
    (Obs.sink_snapshot sk).Obs.counters
  in
  let one = counters 1 and four = counters 4 in
  List.iter
    (fun name ->
      let v c = List.assoc name c in
      Alcotest.(check bool) (name ^ " recorded") true (v one > 0);
      Alcotest.(check int) (name ^ " at 1 and 4 domains") (v one) (v four))
    [
      "explain.builds";
      "explain.candidates";
      "cover.chosen";
      "scoring.evaluations";
      "bridges.hypotheses";
    ]

let suite =
  [
    ( "campaign",
      [
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        Alcotest.test_case "methods selection" `Quick test_methods_selection;
        Alcotest.test_case "every outcome has failures" `Quick
          test_every_outcome_has_failures;
        Alcotest.test_case "test set memoised" `Quick test_test_set_memoised;
        Alcotest.test_case "qualities accessor" `Quick test_qualities_accessor;
        Alcotest.test_case "stuck singles all SLAT" `Quick
          test_slat_fraction_single_defect_with_stuck_mix;
        Alcotest.test_case "pattern override" `Quick test_pattern_override;
        Alcotest.test_case "workers inherit the caller's sink" `Quick
          test_sink_inherited_by_workers;
      ] );
  ]

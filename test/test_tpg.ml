let test_full_coverage_structured () =
  (* Irredundant structured circuits must reach 100% of testable faults. *)
  List.iter
    (fun (name, net) ->
      let report = Tpg.generate ~seed:1 net in
      if report.Tpg.coverage < 1.0 then
        Alcotest.failf "%s: coverage %.3f (aborted %d)" name report.Tpg.coverage
          report.Tpg.aborted)
    [
      ("c17", Generators.c17 ());
      ("add8", Generators.ripple_adder 8);
      ("dec3", Generators.decoder 3);
      ("par8", Generators.parity 8);
      ("cmp8", Generators.comparator 8);
    ]

let test_report_consistency () =
  let net = Generators.ripple_adder 8 in
  let r = Tpg.generate ~seed:1 net in
  Alcotest.(check bool) "detected <= total" true (r.Tpg.detected <= r.Tpg.total_faults);
  Alcotest.(check bool) "untestable + detected <= total" true
    (r.Tpg.untestable + r.Tpg.detected <= r.Tpg.total_faults);
  Alcotest.(check bool) "some patterns" true (Pattern.count r.Tpg.patterns > 0);
  Alcotest.(check int) "pattern width" (Netlist.num_pis net)
    (Pattern.npis r.Tpg.patterns)

let test_coverage_of_matches_report () =
  let net = Generators.parity 8 in
  let r = Tpg.generate ~seed:1 net in
  (* With no untestable faults the two coverage numbers coincide. *)
  if r.Tpg.untestable = 0 then
    Alcotest.(check bool) "coverage_of agrees" true
      (abs_float (Tpg.coverage_of net r.Tpg.patterns -. r.Tpg.coverage) < 1e-9)

let test_compact_preserves_coverage () =
  let net = Generators.ripple_adder 8 in
  let r = Tpg.generate ~seed:1 net in
  let compacted = Tpg.compact net r.Tpg.patterns in
  Alcotest.(check bool) "not larger" true
    (Pattern.count compacted <= Pattern.count r.Tpg.patterns);
  Alcotest.(check bool) "coverage preserved" true
    (Tpg.coverage_of net compacted >= Tpg.coverage_of net r.Tpg.patterns -. 1e-9)

let test_deterministic () =
  let net = Generators.decoder 3 in
  let a = Tpg.generate ~seed:5 net in
  let b = Tpg.generate ~seed:5 net in
  Alcotest.(check int) "same count" (Pattern.count a.Tpg.patterns)
    (Pattern.count b.Tpg.patterns);
  Alcotest.(check bool) "same patterns" true
    (List.for_all
       (fun p -> Pattern.to_string a.Tpg.patterns p = Pattern.to_string b.Tpg.patterns p)
       (List.init (Pattern.count a.Tpg.patterns) Fun.id))

let test_redundant_circuit_reports_untestable () =
  let b = Builder.create () in
  let a = Builder.input b "a" in
  let na = Builder.not_ b ~name:"na" a in
  let z = Builder.or_ b ~name:"z" [ a; na ] in
  Builder.mark_output b z;
  let net = Builder.finalize b in
  let r = Tpg.generate ~seed:1 net in
  Alcotest.(check bool) "has untestable" true (r.Tpg.untestable > 0);
  (* Coverage excludes untestable faults from the denominator. *)
  Alcotest.(check bool) "full coverage of testables" true (r.Tpg.coverage >= 1.0 -. 1e-9)

(* Count distinct patterns of [pats] detecting [f]. *)
let detection_count net pats f =
  let sim = Reference.scalar net in
  let count = ref 0 in
  List.iter
    (fun block ->
      let good = Logic_sim.simulate_block net block in
      let w =
        Reference.detects sim ~good ~width:block.Pattern.width ~site:f.Fault_list.site
          ~stuck:f.Fault_list.stuck
      in
      let rec pop w = if w = 0 then 0 else 1 + pop (w land (w - 1)) in
      count := !count + pop w)
    (Pattern.blocks pats);
  !count

let test_ndetect_reaches_n () =
  let net = Generators.ripple_adder 8 in
  let n = 3 in
  let r = Tpg.generate_ndetect ~seed:1 ~n net in
  Alcotest.(check bool) "full n-coverage" true (r.Tpg.coverage >= 1.0 -. 1e-9);
  let collapsed = Fault_list.collapse net in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "%s detected %d times" (Fault_list.to_string net f) n)
        true
        (detection_count net r.Tpg.patterns f >= n))
    (Fault_list.representatives collapsed)

let test_ndetect_1_equals_detect () =
  (* N=1 must still achieve full single-detect coverage. *)
  let net = Generators.decoder 3 in
  let r = Tpg.generate_ndetect ~seed:1 ~n:1 net in
  Alcotest.(check bool) "coverage" true (r.Tpg.coverage >= 1.0 -. 1e-9)

let test_ndetect_grows_with_n () =
  let net = Generators.parity 8 in
  let p1 = Tpg.generate_ndetect ~seed:1 ~n:1 net in
  let p3 = Tpg.generate_ndetect ~seed:1 ~n:3 net in
  Alcotest.(check bool) "more patterns" true
    (Pattern.count p3.Tpg.patterns >= Pattern.count p1.Tpg.patterns)

(* The CLI's test sets, pinned byte for byte: MD5 of [Pattern.to_text]
   of [Campaign.test_set] (seed 1, backtrack limit 128), with pattern
   count and coverage, for every suite circuit.  Recorded before PODEM's
   implication engine was rewritten; any change to the search, the fill
   or the fault drop shows up here.  A change that moves one of these
   digests must also bump [Tpg.flow_version], or a stored test set
   written before it would still be loaded. *)
let pinned_test_sets =
  [
    ("c17", "25b02c827a7df74599570558e10f7d80", 63, 1.0);
    ("par16", "dfb20819df17c1fb131d45e64a191ab5", 63, 1.0);
    ("dec4", "25b02c827a7df74599570558e10f7d80", 63, 1.0);
    ("gray8", "02158e4d44fd607c39959d8f174541f3", 63, 1.0);
    ("add8", "483f2d9923b871cac59da91c4e1f59cf", 63, 1.0);
    ("penc4", "d03f5bbb30e9a2fbf536e5be6a2ef2a4", 72, 0.9875);
    ("crc16", "483f2d9923b871cac59da91c4e1f59cf", 63, 1.0);
    ("cmp16", "fbdc83b77dfb91bbfba13dbe12ba9532", 283, 1.0);
    ("cla16", "6ee63d0d04a8e42030ae28ce4beb3fa5", 63, 1.0);
    ("mux5", "c5ff66b0b106539a84eaf4dbcca26a1d", 257, 1.0);
    ("maj9", "cfe36cbccaae392884bc716c518a1134", 63, 0.9730);
    ("bshift4", "bd7528bd41921e2438ee45d2c398be4d", 126, 1.0);
    ("alu8", "8e04974e7cb511901cafae2403c3b625", 126, 1.0);
    ("add32", "64d6ec8470529f3c869f7fc0d8c9f569", 63, 1.0);
    ("mult8", "490d71b6d484fde6d16e206b583f45cd", 126, 1.0);
    ("rnd1k", "1800243af2fd595b96f86fd3597c13ce", 288, 0.9014);
    ("rnd2k", "997a9a472c133148f4bd16b403b84d12", 321, 0.8870);
  ]

let md5_text pats = Digest.to_hex (Digest.string (Pattern.to_text pats))

let test_pinned_test_sets () =
  Alcotest.(check (list string))
    "every suite circuit pinned"
    (List.map fst (Generators.suite ()))
    (List.map (fun (name, _, _, _) -> name) pinned_test_sets);
  List.iter
    (fun (name, digest, count, coverage) ->
      let r = Campaign.test_report (Option.get (Generators.find_suite name)) in
      Alcotest.(check int) (name ^ " patterns") count (Pattern.count r.Tpg.patterns);
      Alcotest.(check (float 5e-5)) (name ^ " coverage") coverage r.Tpg.coverage;
      Alcotest.(check string) (name ^ " digest") digest (md5_text r.Tpg.patterns))
    pinned_test_sets

(* [Tpg.compact] of each circuit's pinned test set, with the MD5 and
   pattern count of the compacted set, and [Tpg.coverage_of] of the
   pinned set, which compaction must keep.  Recorded while faults were
   still dropped by the per-pattern scalar sweep, so they also pin the
   batch kernel's fault drop. *)
let pinned_compactions =
  [
    ("rnd1k", "11c69206b4ad48f644823c4a14899f91", 67, 0.820540540541);
    ("cmp16", "34eb6961d1e3c3dfe7cac11958945dc7", 38, 1.0);
    ("alu8", "27d55b11c9eb8382bac2d9b8bad5fa26", 27, 0.958715596330);
  ]

let test_pinned_compactions () =
  List.iter
    (fun (name, digest, count, coverage) ->
      let net = Option.get (Generators.find_suite name) in
      let pats = (Campaign.test_report net).Tpg.patterns in
      let compacted = Tpg.compact net pats in
      Alcotest.(check int) (name ^ " compacted patterns") count (Pattern.count compacted);
      Alcotest.(check string) (name ^ " compacted digest") digest (md5_text compacted);
      Alcotest.(check (float 1e-9))
        (name ^ " coverage_of") coverage (Tpg.coverage_of net pats);
      Alcotest.(check (float 1e-9))
        (name ^ " compacted coverage_of") coverage (Tpg.coverage_of net compacted))
    pinned_compactions

(* N-detect top-off calls PODEM with a fresh fill seed per attempt;
   cmp16 needs hundreds of such calls beyond its random slabs. *)
let test_pinned_ndetect () =
  let r = Tpg.generate_ndetect ~seed:1 ~n:3 (Generators.comparator 16) in
  Alcotest.(check int) "patterns" 847 (Pattern.count r.Tpg.patterns);
  Alcotest.(check string) "digest" "8b6b3347fcfdf53b79fba74b0b555b02" (md5_text r.Tpg.patterns)

(* The windowed PODEM top-off against [Reference.tpg_generate], one
   fault at a time: the same patterns, report and committed PODEM work
   ([tpg.*] counters) at 1, 2 and 4 domains.  Returns the windows'
   discards, equal at every domain count too. *)
let windowed_matches_reference ~backtrack_limit ~seed net =
  let want, work = Reference.tpg_generate ~seed ~backtrack_limit net in
  let runs =
    List.map
      (fun domains ->
        With_domains.run domains @@ fun () ->
        let sk = Obs.sink () in
        let got = Obs.with_sink sk (fun () -> Tpg.generate ~seed ~backtrack_limit net) in
        let counters = (Obs.sink_snapshot sk).Obs.counters in
        let counter name = Option.value ~default:0 (List.assoc_opt name counters) in
        let same =
          md5_text got.Tpg.patterns = md5_text want.Tpg.patterns
          && { got with Tpg.patterns = want.Tpg.patterns } = want
          && counter "tpg.podem_calls" = work.Podem.calls
          && counter "tpg.backtracks" = work.Podem.backtracks
          && counter "tpg.aborted" = work.Podem.aborted
          && counter "tpg.implications" = work.Podem.implications
        in
        (same, counter "tpg.speculative_discards"))
      [ 1; 2; 4 ]
  in
  match runs with
  | (_, discards) :: _ when List.for_all (fun (same, d) -> same && d = discards) runs ->
    Some discards
  | _ -> None

let random_circuit ~gates ~seed =
  Generators.random_logic ~gates ~pis:(4 + (seed mod 13)) ~pos:(2 + (seed mod 7)) ~seed

let qcheck_windowed_matches_reference =
  QCheck.Test.make
    ~name:"windowed PODEM top-off = one-at-a-time reference (domains 1/2/4)" ~count:12
    QCheck.(triple (int_range 50 300) (int_range 1 10_000) (oneofl [ 4; 16; 128 ]))
    (fun (gates, seed, backtrack_limit) ->
      Option.is_some
        (windowed_matches_reference ~backtrack_limit ~seed (random_circuit ~gates ~seed)))

(* The property above is only as strong as the windows it sees: over
   this fixed sample, some window's commit drops a later member, whose
   speculative run is then discarded. *)
let test_windowed_discards () =
  let discards =
    List.fold_left
      (fun acc (gates, seed, backtrack_limit) ->
        let net = random_circuit ~gates ~seed in
        match windowed_matches_reference ~backtrack_limit ~seed net with
        | Some d -> acc + d
        | None ->
          Alcotest.failf "gates %d seed %d limit %d: differs from the reference" gates seed
            backtrack_limit)
      0
      [ (300, 17, 4); (300, 42, 16); (250, 7, 128); (200, 99, 16) ]
  in
  Alcotest.(check bool) "some run discarded" true (discards > 0)

let suite =
  [
    ( "tpg",
      [
        Alcotest.test_case "full coverage structured" `Quick test_full_coverage_structured;
        Alcotest.test_case "report consistency" `Quick test_report_consistency;
        Alcotest.test_case "coverage_of matches" `Quick test_coverage_of_matches_report;
        Alcotest.test_case "compaction preserves coverage" `Quick
          test_compact_preserves_coverage;
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        Alcotest.test_case "redundant circuit" `Quick test_redundant_circuit_reports_untestable;
        Alcotest.test_case "n-detect reaches n" `Quick test_ndetect_reaches_n;
        Alcotest.test_case "n-detect n=1" `Quick test_ndetect_1_equals_detect;
        Alcotest.test_case "n-detect grows with n" `Quick test_ndetect_grows_with_n;
        Alcotest.test_case "suite test sets pinned" `Quick test_pinned_test_sets;
        Alcotest.test_case "n-detect test set pinned (cmp16)" `Quick test_pinned_ndetect;
        Alcotest.test_case "compactions and coverage pinned" `Quick test_pinned_compactions;
        QCheck_alcotest.to_alcotest qcheck_windowed_matches_reference;
        Alcotest.test_case "windowed top-off discards some runs" `Quick
          test_windowed_discards;
      ] );
  ]

(* The observability layer: counters/dists/phases record what happened
   in the sink bound around it (and nothing when none is), run reports
   are deterministic modulo timings, and the bundled JSON reader
   understands everything the layer writes. *)

(* [f ()] under a fresh sink, and that sink's snapshot: a case sees
   only its own events, whatever ran before it. *)
let recorded f =
  let sk = Obs.sink () in
  Obs.with_sink sk f;
  Obs.sink_snapshot sk

(* A small but non-trivial diagnosis problem: c17, two random defects,
   redrawn until the test set actually fails.  Everything derives from
   [seed], so one seed = one problem. *)
let problem seed =
  let net = Generators.c17 () in
  let pats = Campaign.test_set net in
  let expected = Logic_sim.responses net pats in
  let rng = Rng.create seed in
  let rec draw attempts =
    if attempts = 0 then failwith "no failing combination"
    else begin
      let defects = Injection.random_defects rng net Injection.default_mix 2 in
      let observed = Injection.observed_responses net pats defects in
      let dlog = Datalog.of_responses ~expected ~observed in
      if Datalog.num_failing dlog = 0 then draw (attempts - 1) else dlog
    end
  in
  (net, pats, draw 50)

let diagnose_once seed =
  let net, pats, dlog = problem seed in
  ignore (Noassume.diagnose_session (Session.create net pats) dlog)

let counter_value snap name =
  match List.assoc_opt name snap.Obs.counters with
  | Some v -> v
  | None -> Alcotest.failf "counter %s not in snapshot" name

let test_counters_and_phases_recorded () =
  let snap = recorded (fun () -> diagnose_once 42) in
  Alcotest.(check int) "one explain build" 1 (counter_value snap "explain.builds");
  Alcotest.(check bool)
    "faults were simulated" true
    (counter_value snap "sim.faults_simulated" > 0);
  Alcotest.(check bool)
    "candidates were seeded" true
    (counter_value snap "explain.candidates" > 0);
  Alcotest.(check bool)
    "scores were evaluated" true
    (counter_value snap "scoring.evaluations" > 0);
  let phase_names = List.map (fun p -> p.Obs.p_name) snap.Obs.phases in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " phase present") true (List.mem name phase_names))
    [ "explain-build"; "cover"; "refine"; "callouts"; "validate-bridges" ];
  List.iter
    (fun (p : Obs.phase_stat) ->
      Alcotest.(check bool) (p.p_name ^ " count positive") true (p.p_count > 0);
      Alcotest.(check bool) (p.p_name ^ " time non-negative") true (p.p_total_ns >= 0.0))
    snap.Obs.phases;
  let chunks =
    List.find_opt
      (fun (d : Obs.dist_stat) -> d.d_name = "parallel.chunks_per_region")
      snap.Obs.dists
  in
  match chunks with
  | Some d -> Alcotest.(check bool) "chunk dist populated" true (d.d_count > 0)
  | None -> Alcotest.fail "parallel.chunks_per_region not in snapshot"

(* With no sink bound nothing records: a span begun outside any sink
   is inert, even when it ends inside one. *)
let test_disabled_records_nothing () =
  Alcotest.(check bool) "off with no sink bound" false (Obs.enabled ());
  let unbound = Obs.span_begin "test.unbound" in
  diagnose_once 42;
  let snap =
    recorded (fun () ->
        Alcotest.(check bool) "on under a sink" true (Obs.enabled ());
        Obs.span_end unbound)
  in
  List.iter
    (fun (name, v) -> Alcotest.(check int) (name ^ " stays zero") 0 v)
    snap.Obs.counters;
  Alcotest.(check (list string)) "no phases" [] (List.map (fun p -> p.Obs.p_name) snap.Obs.phases);
  List.iter
    (fun (d : Obs.dist_stat) -> Alcotest.(check int) (d.d_name ^ " empty") 0 d.d_count)
    snap.Obs.dists

(* Test generation accounts for itself: one "tpg" phase per call and
   the PODEM work counters, with aborts matching the report.  PODEM's
   speculative windows commit in fault order, so every [tpg.*] counter
   reads the same at 1 and 4 domains. *)
let test_tpg_recorded () =
  let net = Generators.random_logic ~gates:300 ~pis:12 ~pos:6 ~seed:17 in
  let tpg_counters domains =
    With_domains.run domains @@ fun () ->
    let sk = Obs.sink () in
    let r = Obs.with_sink sk (fun () -> Tpg.generate ~seed:1 ~backtrack_limit:4 net) in
    let snap = Obs.sink_snapshot sk in
    Alcotest.(check bool) "podem ran" true (counter_value snap "tpg.podem_calls" > 0);
    Alcotest.(check bool)
      "implications counted" true
      (counter_value snap "tpg.implications" > 0);
    Alcotest.(check int)
      "aborts match the report" r.Tpg.aborted
      (counter_value snap "tpg.aborted");
    Alcotest.(check bool) "some aborts" true (r.Tpg.aborted > 0);
    Alcotest.(check bool)
      "backtracks cover the aborts" true
      (counter_value snap "tpg.backtracks" > 4 * r.Tpg.aborted);
    (match List.find_opt (fun p -> p.Obs.p_name = "tpg") snap.Obs.phases with
    | Some p -> Alcotest.(check int) "one tpg phase" 1 p.Obs.p_count
    | None -> Alcotest.fail "tpg phase missing");
    List.filter
      (fun (name, _) -> String.length name > 4 && String.sub name 0 4 = "tpg.")
      snap.Obs.counters
  in
  let at1 = tpg_counters 1 in
  Alcotest.(check bool)
    "speculative_discards registered" true
    (List.mem_assoc "tpg.speculative_discards" at1);
  Alcotest.(check (list (pair string int))) "tpg.* counters at 1 and 4 domains" at1
    (tpg_counters 4)

let test_span_nesting () =
  let snap =
    recorded (fun () ->
        let outer = Obs.span_begin "test.outer" in
        Obs.phase "test.inner" (fun () -> ignore (Sys.opaque_identity (Array.make 64 0)));
        Obs.span_end outer;
        Obs.span_end outer (* double end: no-op *))
  in
  let stat name =
    match List.find_opt (fun p -> p.Obs.p_name = name) snap.Obs.phases with
    | Some p -> p
    | None -> Alcotest.failf "phase %s missing" name
  in
  Alcotest.(check int) "outer once" 1 (stat "test.outer").Obs.p_count;
  Alcotest.(check int) "inner once" 1 (stat "test.inner").Obs.p_count;
  Alcotest.(check bool)
    "outer spans inner" true
    ((stat "test.outer").Obs.p_total_ns >= (stat "test.inner").Obs.p_total_ns)

(* Which participant drains which chunk varies from run to run; the
   plan does not.  The dist records each region's planned chunk count
   once, so every run of one region records the same values. *)
let test_parallel_chunk_dist () =
  let run () =
    recorded (fun () ->
        ignore (Parallel.map_array ~domains:2 succ (Array.make 100 0) : int array))
  in
  let dist snap =
    let d =
      List.find (fun (d : Obs.dist_stat) -> d.d_name = "parallel.chunks_per_region")
        snap.Obs.dists
    in
    [ d.d_count; d.d_sum; d.d_min; d.d_max ]
  in
  let snap = run () in
  Alcotest.(check int) "one batch" 1 (counter_value snap "parallel.batches");
  Alcotest.(check int) "one spawn" 1 (counter_value snap "parallel.spawns");
  Alcotest.(check (list int)) "one region of two chunks" [ 1; 2; 2; 2 ] (dist snap);
  for _ = 1 to 20 do
    Alcotest.(check (list int)) "the same on every run" (dist snap) (dist (run ()))
  done;
  (* A weighted plan oversplits: 8 chunks for 2 participants, which
     drain them in whatever split the race gives. *)
  With_domains.run 2 @@ fun () ->
  let plan = Parallel.weighted_chunks ~weights:(Array.make 64 1) () in
  let run_plan () =
    dist (recorded (fun () -> Parallel.run_plan_slotted plan (fun ~slot:_ _ _ _ -> ())))
  in
  Alcotest.(check (list int)) "one region of eight chunks" [ 1; 8; 8; 8 ] (run_plan ());
  for _ = 1 to 20 do
    Alcotest.(check (list int)) "the plan, not the race" [ 1; 8; 8; 8 ] (run_plan ())
  done

(* [merge] folds a sink into the sink bound in the calling domain
   through the same per-kind updates events make, and leaves the merged
   sink empty; with no sink bound it does nothing. *)
let test_merge () =
  let c = Obs.counter "test.merge_count" and d = Obs.dist "test.merge_dist" in
  let dist_of snap =
    let d =
      List.find (fun (d : Obs.dist_stat) -> d.d_name = "test.merge_dist") snap.Obs.dists
    in
    [ d.d_count; d.d_sum; d.d_min; d.d_max ]
  in
  let phases snap = List.map (fun p -> (p.Obs.p_name, p.Obs.p_count)) snap.Obs.phases in
  let fresh = Obs.sink_snapshot (Obs.sink ()) in
  Alcotest.(check (option int))
    "fresh sink lists a registered counter at zero" (Some 0)
    (List.assoc_opt "test.merge_count" fresh.Obs.counters);
  Alcotest.(check bool)
    "fresh sink counters are zero" true
    (List.for_all (fun (_, v) -> v = 0) fresh.Obs.counters);
  Alcotest.(check (list int)) "fresh sink lists a registered dist at zero" [ 0; 0; 0; 0 ]
    (dist_of fresh);
  Alcotest.(check bool)
    "fresh sink dists are zero" true
    (List.for_all
       (fun (d : Obs.dist_stat) ->
         d.d_count = 0 && d.d_sum = 0 && d.d_min = 0 && d.d_max = 0)
       fresh.Obs.dists);
  let sk = Obs.sink () in
  Obs.with_sink sk (fun () ->
      Obs.add c 4;
      Obs.record d 5;
      Obs.record d 15;
      Obs.phase "test.merge_phase" ignore;
      Obs.phase "test.merge_phase" ignore);
  Obs.merge sk;
  Alcotest.(check int) "unbound merge leaves the sink" 4
    (counter_value (Obs.sink_snapshot sk) "test.merge_count");
  let target = Obs.sink () in
  Obs.with_sink target (fun () ->
      Obs.add c 3;
      Obs.record d 10;
      Obs.record d 20;
      Obs.phase "test.merge_phase" ignore;
      Alcotest.(check int) "target untouched before merge" 3
        (counter_value (Obs.sink_snapshot target) "test.merge_count");
      Obs.merge sk);
  let snap = Obs.sink_snapshot target in
  Alcotest.(check int) "counters add" 7 (counter_value snap "test.merge_count");
  Alcotest.(check (list int))
    "dists combine count, sum, min and max" [ 4; 50; 5; 20 ] (dist_of snap);
  Alcotest.(check (list (pair string int)))
    "phases add" [ ("test.merge_phase", 3) ] (phases snap);
  let after = Obs.sink_snapshot sk in
  Alcotest.(check int) "sink counter emptied" 0 (counter_value after "test.merge_count");
  Alcotest.(check (list int)) "sink dist emptied" [ 0; 0; 0; 0 ] (dist_of after);
  Alcotest.(check (list (pair string int))) "sink phases emptied" [] (phases after)

(* --- Run reports ----------------------------------------------------- *)

let capture_of_run seed =
  let sink = Obs.sink () in
  Obs.with_sink sink (fun () -> diagnose_once seed);
  Run_report.capture ~sink ~meta:[ ("seed", string_of_int seed) ] ()

let qcheck_deterministic_report =
  QCheck.Test.make ~name:"identical runs produce byte-identical reports (sans timings)"
    ~count:6
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let a = Run_report.to_json ~timings:false (capture_of_run seed) in
      let b = Run_report.to_json ~timings:false (capture_of_run seed) in
      a = b)

let test_report_json_parses () =
  let report = capture_of_run 7 in
  List.iter
    (fun timings ->
      let text = Run_report.to_json ~timings report in
      match Obs_json.parse text with
      | Error msg -> Alcotest.failf "report JSON (timings=%b) unparsable: %s" timings msg
      | Ok json ->
        Alcotest.(check (option string))
          "meta.seed survives" (Some "7")
          (Option.bind (Obs_json.member "meta" json) (fun m ->
               Option.bind (Obs_json.member "seed" m) Obs_json.str));
        Alcotest.(check bool)
          "counters round-trip" true
          (Run_report.counters_of_json json = report.Run_report.snap.Obs.counters))
    [ true; false ]

(* --- The JSON reader ------------------------------------------------- *)

let test_json_parse_accessors () =
  let text =
    {|{"min_speedup_at_4": 0.60, "gated_counters": ["a", "b"], "nested": {"x": -3},
       "flag": true, "nothing": null, "label": "q\"\nA"}|}
  in
  match Obs_json.parse text with
  | Error msg -> Alcotest.fail msg
  | Ok json ->
    Alcotest.(check (option (float 1e-9)))
      "float member" (Some 0.60)
      (Option.bind (Obs_json.member "min_speedup_at_4" json) Obs_json.num);
    Alcotest.(check (option int))
      "nested int" (Some (-3))
      (Option.bind (Obs_json.member "nested" json) (fun n ->
           Option.bind (Obs_json.member "x" n) Obs_json.int));
    Alcotest.(check (option (list string)))
      "string list" (Some [ "a"; "b" ])
      (Option.map
         (List.filter_map Obs_json.str)
         (Option.bind (Obs_json.member "gated_counters" json) Obs_json.list));
    Alcotest.(check (option string))
      "escapes decoded" (Some "q\"\nA")
      (Option.bind (Obs_json.member "label" json) Obs_json.str);
    Alcotest.(check (option int))
      "int accessor rejects fractions" None
      (Option.bind (Obs_json.member "min_speedup_at_4" json) Obs_json.int)

let test_json_roundtrip () =
  let v =
    Obs_json.Obj
      [
        ("s", Obs_json.Str "a\"b\\c\nd");
        ("n", Obs_json.Num 42.0);
        ("f", Obs_json.Num 0.25);
        ("l", Obs_json.List [ Obs_json.Bool true; Obs_json.Null; Obs_json.Num (-7.0) ]);
        ("o", Obs_json.Obj [ ("k", Obs_json.Str "v") ]);
      ]
  in
  match Obs_json.parse (Obs_json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "value survives" true (v = v')
  | Error msg -> Alcotest.fail msg

let test_json_rejects_garbage () =
  List.iter
    (fun text ->
      match Obs_json.parse text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [ "{"; "[1,]"; "tru"; "{\"a\" 1}"; "\"unterminated"; "1 2"; "" ]

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "instrumented run records counters and phases" `Quick
          test_counters_and_phases_recorded;
        Alcotest.test_case "test generation records phase and counters" `Quick
          test_tpg_recorded;
        Alcotest.test_case "disabled run records nothing" `Quick
          test_disabled_records_nothing;
        Alcotest.test_case "span nesting" `Quick test_span_nesting;
        Alcotest.test_case "chunks-per-region distribution" `Quick
          test_parallel_chunk_dist;
        Alcotest.test_case "merge folds a sink into the bound sink" `Quick
          test_merge;
        Alcotest.test_case "run-report JSON parses and round-trips" `Quick
          test_report_json_parses;
        Alcotest.test_case "JSON reader accessors" `Quick test_json_parse_accessors;
        Alcotest.test_case "JSON writer/reader round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "JSON reader rejects garbage" `Quick test_json_rejects_garbage;
        QCheck_alcotest.to_alcotest qcheck_deterministic_report;
      ] );
  ]

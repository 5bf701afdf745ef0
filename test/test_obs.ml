(* The observability layer: counters/dists/phases record what happened
   (and nothing when disabled), run reports are deterministic modulo
   timings, and the bundled JSON reader understands everything the
   layer writes. *)

(* Every test owns the process-global registry for its duration and
   restores the disabled/empty state afterwards, so ordering against
   other suites (some of which run instrumented code) cannot matter. *)
let isolated f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

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
  isolated @@ fun () ->
  diagnose_once 42;
  let snap = Obs.snapshot () in
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
      (fun (d : Obs.dist_stat) -> d.d_name = "parallel.chunks_per_domain")
      snap.Obs.dists
  in
  match chunks with
  | Some d -> Alcotest.(check bool) "chunk dist populated" true (d.d_count > 0)
  | None -> Alcotest.fail "parallel.chunks_per_domain not in snapshot"

let test_disabled_records_nothing () =
  Obs.reset ();
  Obs.disable ();
  diagnose_once 42;
  let snap = Obs.snapshot () in
  List.iter
    (fun (name, v) -> Alcotest.(check int) (name ^ " stays zero") 0 v)
    snap.Obs.counters;
  Alcotest.(check (list string)) "no phases" [] (List.map (fun p -> p.Obs.p_name) snap.Obs.phases);
  List.iter
    (fun (d : Obs.dist_stat) -> Alcotest.(check int) (d.d_name ^ " empty") 0 d.d_count)
    snap.Obs.dists

(* Test generation accounts for itself: one "tpg" phase per call and
   the PODEM work counters, with aborts matching the report. *)
let test_tpg_recorded () =
  isolated @@ fun () ->
  let r = Tpg.generate ~seed:1 ~backtrack_limit:4 (Generators.random_logic ~gates:300 ~pis:12 ~pos:6 ~seed:17) in
  let snap = Obs.snapshot () in
  Alcotest.(check bool) "podem ran" true (counter_value snap "tpg.podem_calls" > 0);
  Alcotest.(check bool) "implications counted" true (counter_value snap "tpg.implications" > 0);
  Alcotest.(check int) "aborts match the report" r.Tpg.aborted (counter_value snap "tpg.aborted");
  Alcotest.(check bool) "some aborts" true (r.Tpg.aborted > 0);
  Alcotest.(check bool)
    "backtracks cover the aborts" true
    (counter_value snap "tpg.backtracks" > 4 * r.Tpg.aborted);
  match List.find_opt (fun p -> p.Obs.p_name = "tpg") snap.Obs.phases with
  | Some p -> Alcotest.(check int) "one tpg phase" 1 p.Obs.p_count
  | None -> Alcotest.fail "tpg phase missing"

let test_reset_preserves_registrations () =
  isolated @@ fun () ->
  let c = Obs.counter "test.reset_probe" in
  Obs.incr c;
  Obs.add c 4;
  Alcotest.(check int) "counted" 5 (Obs.value c);
  Obs.reset ();
  Alcotest.(check int) "reset to zero" 0 (Obs.value c);
  Alcotest.(check bool)
    "still listed after reset" true
    (List.mem_assoc "test.reset_probe" (Obs.snapshot ()).Obs.counters);
  Obs.incr c;
  Alcotest.(check int) "old handle keeps working" 1 (Obs.value c)

let test_span_nesting () =
  isolated @@ fun () ->
  let outer = Obs.span_begin "test.outer" in
  Obs.phase "test.inner" (fun () -> ignore (Sys.opaque_identity (Array.make 64 0)));
  Obs.span_end outer;
  Obs.span_end outer;
  (* double end: no-op *)
  let snap = Obs.snapshot () in
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

let test_parallel_chunk_dist () =
  isolated @@ fun () ->
  let acc = Array.make 100 0 in
  Parallel.parallel_for ~domains:2 100 (fun lo hi ->
      for i = lo to hi - 1 do
        acc.(i) <- 1
      done);
  let snap = Obs.snapshot () in
  Alcotest.(check int) "one batch" 1 (counter_value snap "parallel.batches");
  Alcotest.(check int) "one spawn" 1 (counter_value snap "parallel.spawns");
  let d =
    List.find (fun (d : Obs.dist_stat) -> d.d_name = "parallel.chunks_per_domain")
      snap.Obs.dists
  in
  (* Which participant drained which chunk is timing-dependent, but the
     totals are not: two participants, two chunks drained overall. *)
  Alcotest.(check int) "two participants" 2 d.Obs.d_count;
  Alcotest.(check int) "two chunks drained" 2 d.Obs.d_sum

(* --- Run reports ----------------------------------------------------- *)

let capture_of_run seed =
  Obs.reset ();
  Obs.enable ();
  diagnose_once seed;
  let r = Run_report.capture ~meta:[ ("seed", string_of_int seed) ] () in
  Obs.disable ();
  Obs.reset ();
  r

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
          (Run_report.counters_of_json json = Run_report.counters report))
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
        Alcotest.test_case "reset preserves registrations" `Quick
          test_reset_preserves_registrations;
        Alcotest.test_case "span nesting" `Quick test_span_nesting;
        Alcotest.test_case "chunks-per-domain distribution" `Quick
          test_parallel_chunk_dist;
        Alcotest.test_case "run-report JSON parses and round-trips" `Quick
          test_report_json_parses;
        Alcotest.test_case "JSON reader accessors" `Quick test_json_parse_accessors;
        Alcotest.test_case "JSON writer/reader round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "JSON reader rejects garbage" `Quick test_json_rejects_garbage;
        QCheck_alcotest.to_alcotest qcheck_deterministic_report;
      ] );
  ]

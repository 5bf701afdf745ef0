(* Session oracle: how warm a session is must change speed, never
   results.  A cold, a warm and a frozen session, at 1 and at 4 kernel
   domains, must yield a byte-identical diagnosis report on the rnd1k
   suite circuit, and concurrent diagnoses sharing one warm session
   must match their sequential runs byte for byte — the properties the
   volume service stands on.  Each session owns its cache: two sessions
   on one problem share nothing, and a dropped session frees its
   cache. *)

let net =
  lazy
    (match Generators.find_suite "rnd1k" with
    | Some n -> n
    | None -> failwith "rnd1k missing from the suite")

let pats = lazy (Campaign.test_set (Lazy.force net))

let make_dlog seed multiplicity =
  let net = Lazy.force net and pats = Lazy.force pats in
  let expected = Logic_sim.responses net pats in
  let rng = Rng.create seed in
  let rec draw attempts =
    if attempts = 0 then None
    else begin
      let defects = Injection.random_defects rng net Injection.default_mix multiplicity in
      let observed = Injection.observed_responses net pats defects in
      let dlog = Datalog.of_responses ~expected ~observed in
      if Datalog.num_failing dlog = 0 then draw (attempts - 1) else Some dlog
    end
  in
  draw 20

(* A cold session: [Session.create] always builds a fresh cache. *)
let cold_session config = Session.create ~config (Lazy.force net) (Lazy.force pats)

let tmpdir () =
  let dir = Filename.temp_file "mddsession" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let config ~domains = { Session.default_config with Session.domains = Some domains }

(* Cold (every row simulated), warm (the mutable tier, filled by a first
   diagnosis, answers every row) and frozen (prewarm: the packed arena
   answers) sessions, at 1 and 4 domains, produce one report byte for
   byte — the cache may change who answers a probe, never the answer. *)
let prop_all_combos_identical =
  QCheck.Test.make
    ~name:"cold/warm/frozen sessions at one and four domains: byte-identical reports"
    ~count:2
    QCheck.(pair (int_range 1 100_000) (int_range 2 3))
    (fun (seed, multiplicity) ->
      match make_dlog seed multiplicity with
      | None -> true
      | Some dlog ->
        let render session =
          Report.render (Lazy.force net) (Noassume.diagnose_session session dlog)
        in
        let reports domains =
          let session = cold_session (config ~domains) in
          let cold = render session in
          let warm = render session in
          let frozen_session =
            cold_session { (config ~domains) with Session.prewarm = true }
          in
          if not (Sig_cache.is_frozen (Option.get (Session.cache frozen_session))) then
            QCheck.Test.fail_report "prewarm left the cache unfrozen";
          [ cold; warm; render frozen_session ]
        in
        let all = reports 1 @ reports 4 in
        List.for_all (String.equal (List.hd all)) all)

(* Two sessions on the very same (net, pats) values hold two caches: the
   second session's first build starts cold and simulates. *)
let test_sessions_do_not_share () =
  let net = Generators.c17 () in
  let pats = Pattern.exhaustive ~npis:(Netlist.num_pis net) in
  let g19 = Option.get (Netlist.find net "G19") in
  let expected = Logic_sim.responses net pats in
  let observed = Injection.observed_responses net pats [ Defect.Stuck (g19, true) ] in
  let dlog = Datalog.of_responses ~expected ~observed in
  let misses session =
    let sk = Obs.sink () in
    ignore (Obs.with_sink sk (fun () -> Explain.build_session session dlog));
    let counters = (Obs.sink_snapshot sk).Obs.counters in
    Option.value ~default:0 (List.assoc_opt "cache.misses" counters)
  in
  let first = Session.create net pats in
  Alcotest.(check bool) "first session starts cold" true (misses first > 0);
  Alcotest.(check int) "first session is warm on its second build" 0 (misses first);
  Alcotest.(check bool) "second session on the same problem starts cold" true
    (misses (Session.create net pats) > 0)

(* A dropped session frees its cache: nothing outside the session keeps
   the instance reachable. *)
let test_dropped_session_frees_cache () =
  let net = Generators.c17 () in
  let pats = Pattern.exhaustive ~npis:(Netlist.num_pis net) in
  let w = Weak.create 1 in
  let[@inline never] fill () =
    let config = { Session.default_config with prewarm = true } in
    let session = Session.create ~config net pats in
    Weak.set w 0 (Session.cache session)
  in
  fill ();
  Gc.full_major ();
  Alcotest.(check bool) "cache collected with its session" false (Weak.check w 0)

(* Four dies drained concurrently over one shared warm session must
   produce exactly the reports their one-at-a-time runs produce —
   request-level parallelism may not leak state between diagnoses. *)
let prop_concurrent_matches_sequential =
  QCheck.Test.make
    ~name:"4 concurrent diagnoses on one warm session = sequential (byte-identical)"
    ~count:2
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let dies =
        List.filteri
          (fun i _ -> i < 4)
          (List.filter_map
             (fun i -> make_dlog (seed + (31 * i)) 2)
             [ 1; 2; 3; 4; 5; 6 ])
        |> List.mapi (fun i dlog -> { Volume.name = Printf.sprintf "die%d" i; dlog })
      in
      QCheck.assume (dies <> []);
      let session = cold_session (config ~domains:1) in
      (* Sequential reference also warms the session's cache, so the
         concurrent drain below runs the warm-session fast path. *)
      let sequential = Volume.run ~workers:1 session dies in
      let concurrent = Volume.run ~workers:4 session dies in
      List.for_all2
        (fun (a : Volume.die_result) (b : Volume.die_result) ->
          String.equal a.Volume.text b.Volume.text && String.equal a.Volume.die b.Volume.die)
        sequential concurrent)

(* Disk round trip through the session layer, at 1 and 4 domains: a
   session that adopts its frozen tier from a snapshot (store.loads =
   1, zero simulation) must render the same bytes as the prewarming
   session that saved it and as a cold session — the packed
   arena's decode is the same whether the bytes came from a live
   freeze or from disk, and the domain count may change neither. *)
let prop_store_round_trip_identical =
  QCheck.Test.make
    ~name:"store round trip: loaded session = prewarm = cold session (1 and 4 domains)"
    ~count:2
    QCheck.(pair (int_range 1 100_000) (int_range 2 3))
    (fun (seed, multiplicity) ->
      match make_dlog seed multiplicity with
      | None -> true
      | Some dlog ->
        let dir = tmpdir () in
        let render session =
          Report.render (Lazy.force net) (Noassume.diagnose_session session dlog)
        in
        let ok =
          List.for_all
            (fun domains ->
              let base =
                { (config ~domains) with Session.prewarm = true; store_dir = Some dir }
              in
              (* First create sweeps live and saves the snapshot... *)
              let saver = render (cold_session base) in
              (* ...the second must adopt it from disk: one load and no
                 prewarm simulation.  A frozen cache alone would not
                 show it, since a rejected snapshot falls back to a live
                 sweep that freezes too. *)
              let sk = Obs.sink () in
              let loaded_session = Obs.with_sink sk (fun () -> cold_session base) in
              let counter name =
                Option.value ~default:0
                  (List.assoc_opt name (Obs.sink_snapshot sk).Obs.counters)
              in
              if counter "store.loads" <> 1 then
                QCheck.Test.fail_reportf "store.loads = %d, want 1" (counter "store.loads");
              if counter "prewarm.faults" <> 0 then
                QCheck.Test.fail_reportf "prewarm.faults = %d, want 0"
                  (counter "prewarm.faults");
              let loaded = render loaded_session in
              let cold = render (cold_session (config ~domains)) in
              String.equal saver loaded && String.equal saver cold)
            [ 1; 4 ]
        in
        ok)

(* Request-level parallelism on a frozen cache: 4 workers hammering the
   lock-free read path must reproduce the sequential drain byte for
   byte. *)
let prop_frozen_concurrent_matches_sequential =
  QCheck.Test.make
    ~name:"4-worker Volume.run on frozen cache = sequential (byte-identical)" ~count:2
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let dies =
        List.filteri
          (fun i _ -> i < 4)
          (List.filter_map
             (fun i -> make_dlog (seed + (31 * i)) 2)
             [ 1; 2; 3; 4; 5; 6 ])
        |> List.mapi (fun i dlog -> { Volume.name = Printf.sprintf "die%d" i; dlog })
      in
      QCheck.assume (dies <> []);
      let session = cold_session { (config ~domains:1) with Session.prewarm = true } in
      let sequential = Volume.run ~workers:1 session dies in
      let concurrent = Volume.run ~workers:4 session dies in
      List.for_all2
        (fun (a : Volume.die_result) (b : Volume.die_result) ->
          String.equal a.Volume.text b.Volume.text && String.equal a.Volume.die b.Volume.die)
        sequential concurrent)

(* Counter delta after a freeze: every signature probe a die makes must
   be answered by the frozen tier — [cache.hits] (and misses) fully
   replaced by [cache.frozen_hits].  This is the 1-CPU acceptance proxy
   for "zero Mutex.lock on the hit path". *)
let test_frozen_counter_delta () =
  let dies =
    List.filter_map (fun i -> make_dlog (3000 + i) 2) [ 1; 2 ]
    |> List.mapi (fun i dlog -> { Volume.name = Printf.sprintf "die%d" i; dlog })
  in
  Alcotest.(check bool) "got dies" true (dies <> []);
  let session = cold_session { (config ~domains:1) with Session.prewarm = true } in
  Alcotest.(check bool) "cache frozen after prewarm" true
    (Sig_cache.is_frozen (Option.get (Session.cache session)));
  let results = Volume.run ~workers:1 session dies in
  List.iter
    (fun (r : Volume.die_result) ->
      let counters = Run_report.counters r.Volume.report in
      let get n = Option.value ~default:0 (List.assoc_opt n counters) in
      Alcotest.(check int)
        (Printf.sprintf "%s: no mutable-tier hits" r.Volume.die)
        0 (get "cache.hits");
      Alcotest.(check int)
        (Printf.sprintf "%s: no mutable-tier misses" r.Volume.die)
        0 (get "cache.misses");
      Alcotest.(check bool)
        (Printf.sprintf "%s: frozen-tier hits observed" r.Volume.die)
        true
        (get "cache.frozen_hits" > 0))
    results

(* The frozen tier streams each row's triples straight out of the packed
   arena, so replaying a frozen session allocates no more than replaying
   the same rows from the warm mutable tier, whose arrays already exist.
   Decoding every row into a fresh array would cost about three words
   per triple here.  Allocation is deterministic at one domain, unlike
   the time it costs. *)
let test_frozen_replay_allocation () =
  let dlog =
    match make_dlog 5000 3 with Some d -> d | None -> Alcotest.fail "no failing draw"
  in
  let replay_words session =
    ignore (Explain.build_session session dlog);
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Explain.build_session session dlog));
    Gc.minor_words () -. before
  in
  let warm = replay_words (cold_session (config ~domains:1)) in
  let frozen =
    replay_words (cold_session { (config ~domains:1) with Session.prewarm = true })
  in
  Alcotest.(check bool)
    (Printf.sprintf "frozen replay %.0f words <= warm replay %.0f words" frozen warm)
    true (frozen <= warm)

(* The volume rollup ranks by dies-implicated and carries every die. *)
let test_rollup () =
  let dies =
    List.filter_map (fun i -> make_dlog (1000 + i) 2) [ 1; 2; 3 ]
    |> List.mapi (fun i dlog -> { Volume.name = Printf.sprintf "die%d" i; dlog })
  in
  Alcotest.(check bool) "got dies" true (dies <> []);
  let session = cold_session (config ~domains:1) in
  let results = Volume.run ~workers:1 session dies in
  let ru = Volume.rollup session results in
  Alcotest.(check int) "rollup die count" (List.length dies) ru.Volume.dies;
  let sorted_ok =
    let rec check = function
      | a :: (b :: _ as rest) ->
        a.Volume.dies_implicated >= b.Volume.dies_implicated && check rest
      | _ -> true
    in
    check ru.Volume.nets
  in
  Alcotest.(check bool) "nets sorted by dies implicated" true sorted_ok;
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "net %s within die count" n.Volume.net)
        true
        (n.Volume.dies_implicated >= 1 && n.Volume.dies_implicated <= ru.Volume.dies))
    ru.Volume.nets

(* Per-die sinks: each die's report carries its own counters (a
   diagnosis always runs the explain phase at least once), and the
   volume drain does not require the global registry to be enabled. *)
let test_per_die_sinks () =
  let dies =
    List.filter_map (fun i -> make_dlog (2000 + i) 2) [ 1; 2 ]
    |> List.mapi (fun i dlog -> { Volume.name = Printf.sprintf "die%d" i; dlog })
  in
  Alcotest.(check bool) "got dies" true (dies <> []);
  let session = cold_session (config ~domains:1) in
  let results = Volume.run ~workers:1 session dies in
  List.iter
    (fun (r : Volume.die_result) ->
      let counters = Run_report.counters r.Volume.report in
      let evals = Option.value ~default:0 (List.assoc_opt "scoring.evaluations" counters) in
      Alcotest.(check bool)
        (Printf.sprintf "%s scored at least one multiplet" r.Volume.die)
        true (evals > 0))
    results

(* One bad die must not kill a --batch-dir drain: a directory holding
   one valid, one empty and one malformed datalog yields the valid die's
   report, byte-identical to a single-shot run, plus one error record
   per bad die, counted in the rollup and in [volume.failed]. *)
let test_batch_dir_bad_dies () =
  let dlog =
    match make_dlog 4000 2 with Some d -> d | None -> Alcotest.fail "no failing draw"
  in
  let dir = tmpdir () in
  let write name text =
    let oc = open_out (Filename.concat dir name) in
    output_string oc text;
    close_out oc
  in
  write "valid.datalog" (Datalog.to_text dlog);
  write "empty.datalog" "";
  write "malformed.datalog" "garbage line\n";
  let session = cold_session (config ~domains:1) in
  let sk = Obs.sink () in
  let loaded = Obs.with_sink sk (fun () -> Volume.load_dir session dir) in
  Alcotest.(check (option int)) "volume.failed counter" (Some 2)
    (List.assoc_opt "volume.failed" (Obs.sink_snapshot sk).Obs.counters);
  let dies = List.filter_map Result.to_option loaded in
  let failed = List.filter_map (function Error f -> Some f | Ok _ -> None) loaded in
  Alcotest.(check (list string)) "diagnosable dies" [ "valid" ]
    (List.map (fun (d : Volume.die) -> d.Volume.name) dies);
  Alcotest.(check (list string)) "failed dies" [ "empty"; "malformed" ]
    (List.map (fun (f : Volume.failure) -> f.Volume.name) failed);
  let out = Filename.concat dir "out" in
  let ru = Volume.write_results ~dir:out ~failed session (Volume.run ~workers:1 session dies) in
  Alcotest.(check int) "rollup dies" 3 ru.Volume.dies;
  Alcotest.(check int) "rollup failed" 2 ru.Volume.failed;
  let json name =
    match Obs_json.parse_file (Filename.concat out (name ^ ".json")) with
    | Ok j -> j
    | Error msg -> Alcotest.fail msg
  in
  let single_shot = Report.render (Lazy.force net) (Noassume.diagnose_session session dlog) in
  Alcotest.(check (option string)) "valid report = single-shot" (Some single_shot)
    (Option.bind (Obs_json.member "report" (json "valid")) Obs_json.str);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " error record") true
        (Option.bind (Obs_json.member "error" (json name)) Obs_json.str <> None))
    [ "empty"; "malformed" ];
  Alcotest.(check (option int)) "rollup.json failed" (Some 2)
    (Option.bind (Obs_json.member "failed" (json "rollup")) Obs_json.int)

let suite =
  [
    ( "session",
      [
        Alcotest.test_case "volume rollup shape" `Quick test_rollup;
        Alcotest.test_case "per-die sinks carry counters" `Quick test_per_die_sinks;
        Alcotest.test_case "frozen counter delta (hits -> frozen_hits)" `Quick
          test_frozen_counter_delta;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [
            prop_all_combos_identical;
            prop_concurrent_matches_sequential;
            prop_store_round_trip_identical;
            prop_frozen_concurrent_matches_sequential;
          ]
      @ [
          Alcotest.test_case "two sessions on one problem share no signatures" `Quick
            test_sessions_do_not_share;
          Alcotest.test_case "a dropped session frees its cache" `Quick
            test_dropped_session_frees_cache;
          Alcotest.test_case "batch-dir: bad dies become error records" `Quick
            test_batch_dir_bad_dies;
          Alcotest.test_case "frozen replay allocates no more than warm replay" `Quick
            test_frozen_replay_allocation;
        ] );
  ]

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
let cold_session () = Session.create (Lazy.force net) (Lazy.force pats)

(* A frozen session: the arena holds the whole pool before any
   diagnosis. *)
let prewarmed_session () =
  let session = cold_session () in
  ignore (Session.prewarm session : int);
  session

let render_ranking ranked =
  String.concat "\n"
    (List.map
       (fun ((f : Fault_list.fault), (s : Scoring.score)) ->
         Printf.sprintf "%d/%b %d %d %d %d" f.site f.stuck s.explained s.missed s.spurious_fail
           s.spurious_pass)
       ranked)

(* Cold (every row simulated), warm (the arena, filled by a first
   diagnosis, answers every row) and frozen (prewarm: the arena holds
   the whole pool before any diagnosis) sessions, at 1 and 4 domains, produce one report byte for
   byte — the cache may change who answers a probe, never the answer.
   The baselines' cold path ([Session.fault_triples], which simulates
   its misses at the process width) is held to the same
   contract: the single-fault and pass/fail dictionary results on a
   cold session match the frozen session's at both domain counts. *)
let prop_all_combos_identical =
  QCheck.Test.make
    ~name:"cold/warm/frozen sessions at one and four domains: byte-identical reports"
    ~count:2
    QCheck.(pair (int_range 1 100_000) (int_range 2 3))
    (fun (seed, multiplicity) ->
      match make_dlog seed multiplicity with
      | None -> true
      | Some dlog ->
        let net = Lazy.force net in
        let render session = Report.render net (Noassume.diagnose_session session dlog) in
        (* The whole ranking, so a wrong signature anywhere in the
           fault universe shows, not only in the top few. *)
        let single session =
          render_ranking
            (List.map
               (fun (r : Single_diag.ranked) -> (r.fault, r.score))
               (Single_diag.diagnose_session session dlog).ranking)
        in
        let dict session =
          let dict = Dict_diag.build_session Dict_diag.Pass_fail session in
          render_ranking
            (List.map
               (fun (r : Single_diag.ranked) -> (r.fault, r.score))
               (Dict_diag.diagnose dict dlog).ranking)
        in
        let reports domains =
          With_domains.run domains @@ fun () ->
          let session = cold_session () in
          let cold = render session in
          let warm = render session in
          let frozen_session = prewarmed_session () in
          if Sig_cache.frozen_bytes (Option.get (Session.cache frozen_session)) = 0 then
            QCheck.Test.fail_report "prewarm left the arena empty";
          ( [ cold; warm; render frozen_session ],
            [ single (cold_session ()); single frozen_session ],
            [ dict (cold_session ()); dict frozen_session ] )
        in
        let r1, s1, d1 = reports 1 and r4, s4, d4 = reports 4 in
        let same l = List.for_all (String.equal (List.hd l)) l in
        same (r1 @ r4) && same (s1 @ s4) && same (d1 @ d4))

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

(* A dropped session frees its cache and its pattern set: nothing
   outside the session — no scorer a diagnosis built on it — keeps
   either reachable. *)
let test_dropped_session_frees_cache () =
  let net = Generators.c17 () in
  let cache = Weak.create 1 and patterns = Weak.create 1 in
  let[@inline never] fill () =
    let pats = Pattern.exhaustive ~npis:(Netlist.num_pis net) in
    let session = Session.create net pats in
    ignore (Session.prewarm session : int);
    let dlog =
      Reference.datalog ~npatterns:(Pattern.count pats) ~npos:(Netlist.num_pos net)
        [ (3, [ 0 ]) ]
    in
    ignore (Noassume.diagnose_session session dlog : Noassume.result);
    Weak.set cache 0 (Session.cache session);
    Weak.set patterns 0 (Some pats)
  in
  fill ();
  Gc.full_major ();
  Alcotest.(check bool) "cache collected with its session" false (Weak.check cache 0);
  Alcotest.(check bool) "pattern set collected with its session" false
    (Weak.check patterns 0)

(* Four dies drained concurrently over one shared session must produce
   exactly the reports their one-at-a-time runs produce — request-level
   parallelism may not leak state between diagnoses.  Two arms: a
   [Volume.run] drain, which fills the arena first and then only reads
   it, and four dies mapped straight over a fresh session
   ([Volume.diagnose_die], as a campaign's parallel trials run), whose
   workers miss and append to the arena concurrently. *)
let prop_concurrent_matches_sequential =
  QCheck.Test.make
    ~name:"4 concurrent diagnoses on one warm session = sequential, and on a cold one"
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
      let same =
        List.for_all2 (fun (a : Volume.die_result) (b : Volume.die_result) ->
            String.equal a.Volume.text b.Volume.text
            && String.equal a.Volume.die b.Volume.die)
      in
      With_domains.run 1 @@ fun () ->
      let session = cold_session () in
      let sequential = Volume.run ~workers:1 session dies in
      let warm = Volume.run ~workers:4 session dies in
      let cold =
        Array.to_list
          (Parallel.map_array ~domains:4
             (Volume.diagnose_die (cold_session ()))
             (Array.of_list dies))
      in
      same sequential warm && same sequential cold)

(* Disk round trip through the design store ([Design.session]), at 1
   and 4 domains: a session that adopts its arena from the design image
   (store.loads = 1, zero simulation) must render the same bytes as the
   prewarming session that saved it and as a cold session — the packed
   arena's decode is the same whether the bytes came from a live sweep
   or from disk, and the domain count may change neither. *)
let prop_store_round_trip_identical =
  QCheck.Test.make
    ~name:"store round trip: loaded session = prewarm = cold session (1 and 4 domains)"
    ~count:2
    QCheck.(pair (int_range 1 100_000) (int_range 2 3))
    (fun (seed, multiplicity) ->
      match make_dlog seed multiplicity with
      | None -> true
      | Some dlog ->
        Temp_dir.with_dir @@ fun dir ->
        let render session =
          Report.render (Lazy.force net) (Noassume.diagnose_session session dlog)
        in
        let stored () =
          Result.get_ok
            (Design.session ~store_dir:dir (Design.Built (Lazy.force net))
               ~patterns:None)
        in
        let ok =
          List.for_all
            (fun domains ->
              With_domains.run domains @@ fun () ->
              (* First open sweeps live and saves the image... *)
              let saver = render (stored ()) in
              (* ...the second must adopt it from disk: one load and no
                 prewarm simulation.  A full arena alone would not
                 show it, since a rejected image falls back to a live
                 sweep that fills it too. *)
              let sk = Obs.sink () in
              let loaded_session =
                Obs.with_sink sk stored
              in
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
              let cold = render (cold_session ()) in
              String.equal saver loaded && String.equal saver cold)
            [ 1; 4 ]
        in
        ok)

(* Request-level parallelism on a prewarmed arena: 4 workers hammering
   the lock-free read path must reproduce the sequential drain byte for
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
      With_domains.run 1 @@ fun () ->
      let session = prewarmed_session () in
      let sequential = Volume.run ~workers:1 session dies in
      let concurrent = Volume.run ~workers:4 session dies in
      List.for_all2
        (fun (a : Volume.die_result) (b : Volume.die_result) ->
          String.equal a.Volume.text b.Volume.text && String.equal a.Volume.die b.Volume.die)
        sequential concurrent)

(* The four rnd1k dies the drain cases share. *)
let drain_dies () =
  List.filter_map (fun i -> make_dlog (7000 + i) 2) [ 1; 2; 3; 4 ]
  |> List.mapi (fun i dlog -> { Volume.name = Printf.sprintf "die%d" i; dlog })

(* A two-worker drain of 4 dies on a cold session at process width 2
   under one bound sink: that sink's counters and the dies' reports. *)
let cold_drain =
  lazy
    (With_domains.run 2 @@ fun () ->
     let dies = drain_dies () in
     let sk = Obs.sink () in
     let results =
       Obs.with_sink sk (fun () -> Volume.run ~workers:2 (cold_session ()) dies)
     in
     ((Obs.sink_snapshot sk).Obs.counters, results))

let count name counters = Option.value ~default:0 (List.assoc_opt name counters)

(* The counters of the sweep [Volume.run] opens with on a cold session
   at process width 2. *)
let sweep_counters =
  lazy
    (With_domains.run 2 @@ fun () ->
     let sk = Obs.sink () in
     Obs.with_sink sk (fun () -> ignore (Session.prewarm (cold_session ()) : int));
     (Obs.sink_snapshot sk).Obs.counters)

(* The nesting rule, end to end: a two-worker drain at process width
   2 spawns the arena sweep's one domain and its one worker, nothing
   else.  Every die's kernels run inline, the dies the calling domain
   drains included. *)
let test_volume_spawns_once () =
  let counters, results = Lazy.force cold_drain in
  Alcotest.(check int) "four dies" 4 (List.length results);
  Alcotest.(check int) "the sweep spawns one" 1
    (count "parallel.spawns" (Lazy.force sweep_counters));
  Alcotest.(check int) "parallel.spawns" 2 (count "parallel.spawns" counters)

(* Each die's sink is merged into the sink the caller bound, so that
   sink alone holds every die's work: one Explain build per die, and
   each die counter the sum of the dies' reports.  The sink also holds
   the arena sweep, which runs under no die: its simulation comes on
   top of the dies', and no die misses. *)
let test_drain_sink_sees_dies () =
  let counters, results = Lazy.force cold_drain in
  let sweep = Lazy.force sweep_counters in
  Alcotest.(check int) "explain.builds" 4 (count "explain.builds" counters);
  Alcotest.(check int) "cache.misses" 0 (count "cache.misses" counters);
  Alcotest.(check bool) "the sweep simulates the pool" true
    (count "prewarm.faults" sweep > 0
    && count "prewarm.faults" counters = count "prewarm.faults" sweep);
  List.iter
    (fun name ->
      let per_die =
        List.fold_left
          (fun acc (r : Volume.die_result) ->
            acc + count name r.Volume.report.Run_report.snap.Obs.counters)
          0 results
      in
      Alcotest.(check bool) (name ^ " counted") true (per_die > 0);
      Alcotest.(check int)
        (name ^ " = per-die sum + the sweep's")
        (per_die + count name sweep)
        (count name counters))
    [
      "explain.candidates";
      "scoring.evaluations";
      "cache.hits";
      "sim.faults_simulated";
      "sim.gate_events";
    ]

(* Cold drains repeat: 4 dies, each drain on a fresh cold session,
   five drains at one worker and five at two, at process width 2.  [Volume.run] fills the arena before the first die, so no die
   misses, and the scheduling changes nothing: the five drains at one
   worker count agree on every counter and dist, all ten agree on the
   simulation they did, and every report is the one-worker drain's. *)
let test_cold_drain_deterministic () =
  With_domains.run 2 @@ fun () ->
  let dies = drain_dies () in
  Alcotest.(check int) "four dies" 4 (List.length dies);
  let drain workers =
    let sk = Obs.sink () in
    let results =
      Obs.with_sink sk (fun () -> Volume.run ~workers (cold_session ()) dies)
    in
    let snap = Obs.sink_snapshot sk in
    (snap.Obs.counters, snap.Obs.dists, List.map (fun r -> r.Volume.text) results)
  in
  let groups =
    List.map (fun workers -> (workers, List.init 5 (fun _ -> drain workers))) [ 1; 2 ]
  in
  let c1, _, texts = List.hd (List.assoc 1 groups) in
  List.iter
    (fun (workers, runs) ->
      let counters, dists, _ = List.hd runs in
      List.iteri
        (fun run (again_counters, again_dists, again_texts) ->
          let what = Printf.sprintf "%d workers, run %d" workers (run + 1) in
          Alcotest.(check bool) (what ^ ": same counters") true
            (again_counters = counters);
          Alcotest.(check bool) (what ^ ": same dists") true (again_dists = dists);
          Alcotest.(check int) (what ^ ": cache.misses") 0
            (count "cache.misses" again_counters);
          List.iter
            (fun name ->
              Alcotest.(check int) (what ^ ": " ^ name) (count name c1)
                (count name again_counters))
            [ "sim.faults_simulated"; "sim.gate_events" ];
          Alcotest.(check (list string)) (what ^ ": reports") texts again_texts)
        runs)
    groups

(* Counters after a prewarm: the arena already holds every key a die
   probes, so each die's probes all hit and none misses — no die
   simulates a signature. *)
let test_prewarmed_probes_hit () =
  With_domains.run 1 @@ fun () ->
  let dies =
    List.filter_map (fun i -> make_dlog (3000 + i) 2) [ 1; 2 ]
    |> List.mapi (fun i dlog -> { Volume.name = Printf.sprintf "die%d" i; dlog })
  in
  Alcotest.(check bool) "got dies" true (dies <> []);
  let session = prewarmed_session () in
  let results = Volume.run ~workers:1 session dies in
  List.iter
    (fun (r : Volume.die_result) ->
      let counters = r.Volume.report.Run_report.snap.Obs.counters in
      let get n = Option.value ~default:0 (List.assoc_opt n counters) in
      Alcotest.(check int)
        (Printf.sprintf "%s: no misses" r.Volume.die)
        0 (get "cache.misses");
      Alcotest.(check bool)
        (Printf.sprintf "%s: hits observed" r.Volume.die)
        true
        (get "cache.hits" > 0))
    results

(* The drain every tool runs: two workers over 4 dies on a prewarmed
   session, five times, each under its own sink.  With the whole arena
   in place before the first die no die simulates a signature, so the
   counted telemetry cannot depend on which worker drained which die:
   every run counts the same counters and dists, and no miss. *)
let test_prewarmed_drain_deterministic () =
  With_domains.run 2 @@ fun () ->
  let dies =
    List.filter_map (fun i -> make_dlog (7000 + i) 2) [ 1; 2; 3; 4 ]
    |> List.mapi (fun i dlog -> { Volume.name = Printf.sprintf "die%d" i; dlog })
  in
  Alcotest.(check int) "four dies" 4 (List.length dies);
  let session = prewarmed_session () in
  let drain () =
    let sk = Obs.sink () in
    ignore (Obs.with_sink sk (fun () -> Volume.run ~workers:2 session dies));
    let snap = Obs.sink_snapshot sk in
    (snap.Obs.counters, snap.Obs.dists)
  in
  let counters, dists = drain () in
  Alcotest.(check int) "cache.misses" 0 (count "cache.misses" counters);
  Alcotest.(check bool) "cache.hits counted" true (count "cache.hits" counters > 0);
  for run = 2 to 5 do
    let again_counters, again_dists = drain () in
    Alcotest.(check bool) (Printf.sprintf "run %d: same counters" run) true
      (again_counters = counters);
    Alcotest.(check bool) (Printf.sprintf "run %d: same dists" run) true (again_dists = dists)
  done

(* Replay decodes each row out of the packed arena into one reused
   buffer, so replaying a prewarmed arena allocates no more than
   replaying the same rows from an arena the first build filled lazily.
   Decoding every row into a fresh array would cost about three words
   per triple here.  Allocation is deterministic at one domain, unlike the time it
   costs. *)
let test_frozen_replay_allocation () =
  With_domains.run 1 @@ fun () ->
  let dlog =
    match make_dlog 5000 3 with Some d -> d | None -> Alcotest.fail "no failing draw"
  in
  let replay_words session =
    ignore (Explain.build_session session dlog);
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Explain.build_session session dlog));
    Gc.minor_words () -. before
  in
  let lazily_filled = replay_words (cold_session ()) in
  let prewarmed = replay_words (prewarmed_session ()) in
  Alcotest.(check bool)
    (Printf.sprintf
       "prewarmed arena replay %.0f words <= lazily filled arena replay %.0f words" prewarmed
       lazily_filled)
    true (prewarmed <= lazily_filled)

(* The matrix a build allocates is what its consumers read: the covers
   rows, one spurious word per (row, block) and two counts per row.
   A warm build at one domain (deterministic allocation) must allocate
   less than a row x failing-pattern int matrix alone would take,
   8 bytes per (row, failing pattern), on a die where that product is
   large.  A row is a class representative. *)
let test_build_allocates_below_matrix () =
  With_domains.run 1 @@ fun () ->
  let dlog =
    match make_dlog 6000 4 with Some d -> d | None -> Alcotest.fail "no failing draw"
  in
  let session = cold_session () in
  let m = Explain.build_session session dlog in
  let collapsed = Fault_list.collapse (Lazy.force net) in
  let rows =
    Array.to_list (Explain.candidates m)
    |> List.map (Reference.representative_of (Fault_list.representative_indices collapsed))
    |> List.sort_uniq Fault_list.compare_fault |> List.length
  in
  let matrix_bytes = 8. *. float_of_int (rows * Array.length (Explain.failing m)) in
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (Explain.build_session session dlog));
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "warm build allocated %.0f B < %d rows x %d failing patterns x 8 B = %.0f B"
       allocated rows (Array.length (Explain.failing m)) matrix_bytes)
    true
    (matrix_bytes >= 400_000. && allocated < matrix_bytes)

(* The volume rollup ranks by dies-implicated and carries every die. *)
let test_rollup () =
  With_domains.run 1 @@ fun () ->
  let dies =
    List.filter_map (fun i -> make_dlog (1000 + i) 2) [ 1; 2; 3 ]
    |> List.mapi (fun i dlog -> { Volume.name = Printf.sprintf "die%d" i; dlog })
  in
  Alcotest.(check bool) "got dies" true (dies <> []);
  let session = cold_session () in
  let results = Volume.run ~workers:1 session dies in
  let ru = Temp_dir.with_dir (fun dir -> Volume.write_results ~dir ~failed:[] session results) in
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
  With_domains.run 1 @@ fun () ->
  let dies =
    List.filter_map (fun i -> make_dlog (2000 + i) 2) [ 1; 2 ]
    |> List.mapi (fun i dlog -> { Volume.name = Printf.sprintf "die%d" i; dlog })
  in
  Alcotest.(check bool) "got dies" true (dies <> []);
  let session = cold_session () in
  let results = Volume.run ~workers:1 session dies in
  List.iter
    (fun (r : Volume.die_result) ->
      let counters = r.Volume.report.Run_report.snap.Obs.counters in
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
  With_domains.run 1 @@ fun () ->
  let dlog =
    match make_dlog 4000 2 with Some d -> d | None -> Alcotest.fail "no failing draw"
  in
  Temp_dir.with_dir @@ fun dir ->
  let write name text =
    let oc = open_out (Filename.concat dir name) in
    output_string oc text;
    close_out oc
  in
  write "valid.datalog" (Datalog.to_text dlog);
  write "empty.datalog" "";
  write "malformed.datalog" "garbage line\n";
  let session = cold_session () in
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
        Alcotest.test_case "prewarmed session: every die probe hits" `Quick
          test_prewarmed_probes_hit;
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
          Alcotest.test_case "warm build allocates less than a row x pattern matrix" `Quick
            test_build_allocates_below_matrix;
          Alcotest.test_case "2-worker drain on a cold session spawns two domains" `Quick
            test_volume_spawns_once;
          Alcotest.test_case "a sink bound around a drain holds every die's counters"
            `Quick test_drain_sink_sees_dies;
          Alcotest.test_case "2-worker prewarmed drain: counters repeat, no miss" `Quick
            test_prewarmed_drain_deterministic;
          Alcotest.test_case "cold drains at 1 and 2 workers: counters repeat, no miss"
            `Quick test_cold_drain_deterministic;
        ] );
  ]

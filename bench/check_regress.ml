(* Regression gates for the diagnosis kernels, wired into `dune runtest`
   but off by default: set MDD_BENCH_REGRESS (any non-empty value) to
   enable — CI's bench job does.  Thresholds live in thresholds.json,
   committed next to this file, so the gate and CI read one source of
   truth instead of inline literals.

   Seven independent gates; the first three run against the rnd1k
   problem of [Parbench.run] (fixed seed, so everything but wall time
   is deterministic):

   1. Counter gate.  The instrumented counters of one explain-build +
      diagnose run at 1 domain, each on a session one untimed call has
      warmed, are compared with the committed baseline_stats.json.
      Work counters (faults simulated, gate events, scoring
      evaluations, candidate-pool size) must not grow past
      [max_counter_growth] — the kernel-event regressions the
      observability layer exists to catch — nor collapse below
      [min_counter_ratio] of the baseline, which would mean the
      instrumentation itself broke (a counter silently stuck at zero
      passes any growth-only bound).  Every counter the baseline names
      must still be registered, so a stale key cannot sit there
      unnoticed.  Counters are domain-count- and machine-independent,
      so this gate never flakes.  Regenerate the baseline after an
      intentional kernel change with:
        dune exec bench/check_regress.exe -- --write-baseline

   2. Cache gate.  The cross-trial hit rate of the fault-signature
      cache over one sequential campaign cell must stay above
      [min_cache_hit_rate] — deterministic for the fixed seed, and the
      first thing to collapse if the cache key or the session's
      cache sharing regresses.

   3. Timing gate.  The fork-join property PR 2 bought: adding domains
      must not make a cold explain build meaningfully slower than one domain
      even on a single-CPU host (the old parked-pool collapse measured
      0.47x at 4 domains).  The floor leaves headroom below the ~0.7-0.9x
      a shared single CPU measures, because such hosts add tens of
      percent of run-to-run noise.

   4. Volume-throughput gate.  Request-level scaling of the volume
      service on rnd2k: draining one warm session with >= 2 worker
      domains must reach at least [min_volume_throughput] times the
      1-worker diagnoses/sec on a multi-core host (measured well above
      1.3x there).  CI runs a single-CPU container, where extra worker
      domains can only *cost* — spawn, stop-the-world handshakes, and
      timeslice contention measure ~0.8x at 2 workers — so when the
      runtime reports one core the gate drops to the documented
      [min_volume_throughput_1cpu] floor, which only catches the
      service serializing catastrophically (a lock or a sink
      bottleneck on the shared session driving 2 workers far below
      the plain overhead cost).

   5. Prewarm gate.  Same report as gate 4: the prewarm+frozen arm's
      diagnoses/sec over the lazy-warm arm's, best ratio across the
      worker counts, must stay above [min_prewarm_speedup].  The frozen
      tier replaces every warm hit's shard lock + hashtable probe with
      an array load, so the ratio cannot legitimately fall below parity
      on any core count — the floor sits just under 1.0 to absorb
      timing jitter and catches the frozen read path regressing (e.g.
      probes falling through to the mutable tier again).  Multi-core
      hosts measure well above the floor at 2+ workers, where freezing
      also removes the contention.

   6. Exact-agreement gate.  Differential oracle on the covering step:
      the same seeded rnd1k trial stream diagnosed under the greedy and
      the exact (implicit hitting-set) backends.  Hard invariant first
      — no trial may produce an exact cover larger than greedy's (the
      greedy result seeds the exact search's upper bound, so a larger
      cover is a soundness bug, not a tuning matter).  Then the
      agreement rate (trials where greedy already matched the proven
      minimum) must stay above [min_exact_agreement].  Greedy
      deliberately trades cardinality for caution (pair moves,
      misprediction discounts), so the measured rate is well under 1.0;
      the floor sits just below the pinned deterministic measurement
      and a drop means greedy's covers got bigger or the exact
      backend's certificates broke.  Fully deterministic — sizes and
      certificates come from fixed-seed search, never wall time.

   7. Store gate.  The perf property the persistent signature store
      bought: on rnd2k, adopting a saved snapshot (read + validate +
      publish + first diagnose) must stay at least [min_store_speedup]
      times faster than the cold path, where the first diagnosis
      simulates the candidate pool itself.  [Storebench] interleaves
      the arms run by run on fresh sessions and ratios best
      times, the same noise defense as gates 4 and 5. *)

let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt

let thresholds_path = "thresholds.json"
let baseline_path = "baseline_stats.json"

type thresholds = {
  min_speedup_at_4 : float;
  min_cache_hit_rate : float;
  max_counter_growth : float;
  min_counter_ratio : float;
  min_volume_throughput : float;
  min_volume_throughput_1cpu : float;
  min_prewarm_speedup : float;
  min_exact_agreement : float;
  min_store_speedup : float;
  gated_counters : string list;
}

let load_thresholds () =
  let json =
    match Obs_json.parse_file thresholds_path with
    | Ok j -> j
    | Error msg -> die "check_regress: cannot read %s: %s" thresholds_path msg
  in
  let fnum key =
    match Option.bind (Obs_json.member key json) Obs_json.num with
    | Some f -> f
    | None -> die "check_regress: %s: missing number %S" thresholds_path key
  in
  let gated_counters =
    match Option.bind (Obs_json.member "gated_counters" json) Obs_json.list with
    | Some l -> List.filter_map Obs_json.str l
    | None -> die "check_regress: %s: missing list \"gated_counters\"" thresholds_path
  in
  {
    min_speedup_at_4 = fnum "min_speedup_at_4";
    min_cache_hit_rate = fnum "min_cache_hit_rate";
    max_counter_growth = fnum "max_counter_growth";
    min_counter_ratio = fnum "min_counter_ratio";
    min_volume_throughput = fnum "min_volume_throughput";
    min_volume_throughput_1cpu = fnum "min_volume_throughput_1cpu";
    min_prewarm_speedup = fnum "min_prewarm_speedup";
    min_exact_agreement = fnum "min_exact_agreement";
    min_store_speedup = fnum "min_store_speedup";
    gated_counters;
  }

(* The merged counters of one explain-build + one diagnose capture at a
   fixed 1 domain: per-sample reports gate kernel work individually, but
   the baseline pins their sum, which is what a whole run costs.  The
   [Run_report] meta records the capture configuration. *)
let capture_current () =
  let report =
    Parbench.run ~circuit:"rnd1k" ~domain_counts:[ 1 ] ~repeats:1 ~with_stats:true ()
  in
  let tally = Hashtbl.create 32 in
  List.iter
    (fun s ->
      match s.Parbench.stats with
      | None -> die "check_regress: bench sample carries no stats"
      | Some r ->
        List.iter
          (fun (name, v) ->
            Hashtbl.replace tally name
              (v + Option.value ~default:0 (Hashtbl.find_opt tally name)))
          (Run_report.counters r))
    report.Parbench.samples;
  (report, Hashtbl.fold (fun name v acc -> (name, v) :: acc) tally [] |> List.sort compare)

let check_counters t current =
  let baseline =
    match Obs_json.parse_file baseline_path with
    | Ok j -> Run_report.counters_of_json j
    | Error msg -> die "check_regress: cannot read %s: %s" baseline_path msg
  in
  let failures = ref 0 in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name current) then begin
        Printf.eprintf
          "check_regress: FAIL — %s names counter %s, which the program no longer \
           registers (regenerate the baseline)\n"
          baseline_path name;
        incr failures
      end)
    baseline;
  List.iter
    (fun name ->
      match (List.assoc_opt name baseline, List.assoc_opt name current) with
      | None, _ -> die "check_regress: %s lacks gated counter %S" baseline_path name
      | _, None -> die "check_regress: current run lacks gated counter %S" name
      | Some 0, Some cur ->
        if cur <> 0 then begin
          Printf.eprintf "check_regress: FAIL — counter %s: baseline 0, now %d\n" name cur;
          incr failures
        end
      | Some base, Some cur ->
        let ratio = float_of_int cur /. float_of_int base in
        Printf.printf "check_regress: counter %-24s %9d vs baseline %9d (%.3fx)\n" name
          cur base ratio;
        if ratio > t.max_counter_growth then begin
          Printf.eprintf
            "check_regress: FAIL — counter %s grew %.3fx (> %.2fx allowed)\n" name ratio
            t.max_counter_growth;
          incr failures
        end;
        if ratio < t.min_counter_ratio then begin
          Printf.eprintf
            "check_regress: FAIL — counter %s collapsed to %.3fx (< %.2fx of \
             baseline; instrumentation broken?)\n"
            name ratio t.min_counter_ratio;
          incr failures
        end)
    t.gated_counters;
  if !failures > 0 then exit 1

(* Cross-trial cache effectiveness: a sequential campaign cell re-runs
   diagnosis on the same circuit and test set with fresh defects each
   trial, so from trial 2 on the signature cache should answer most
   probes.  A collapsed hit rate means the cache key, the campaign's
   shared session or the eviction budget broke — results stay correct,
   but the cross-phase reuse the cache exists for is gone. *)
let check_cache_hit_rate t =
  let rate, hits, misses = Parbench.campaign_hit_rate () in
  Printf.printf
    "check_regress: cache hit rate %.3f (%d hits / %d misses, floor %.2f)\n%!" rate
    hits misses t.min_cache_hit_rate;
  if rate < t.min_cache_hit_rate then
    die "check_regress: FAIL — campaign cache hit rate %.3f below floor %.2f" rate
      t.min_cache_hit_rate

(* The timing gate measures the fork-join kernel itself: [Parbench]
   times every call on a fresh session, so the timed runs simulate
   rather than replay stored signatures sequentially (where the domain
   count would stop mattering). *)
let check_timing t =
  let report =
    Parbench.run ~circuit:"rnd1k" ~domain_counts:[ 1; 4 ] ~repeats:7 ~with_stats:false ()
  in
  let sample d =
    match
      List.find_opt
        (fun s -> s.Parbench.kernel = "explain-build" && s.Parbench.domains = d)
        report.Parbench.samples
    with
    | Some s -> s
    | None -> die "check_regress: missing explain-build sample"
  in
  let s1 = sample 1 and s4 = sample 4 in
  Printf.printf
    "check_regress: explain-build %.2f ms @1 domain, %.2f ms @4 domains (speedup %.2fx, floor %.2fx)\n%!"
    (s1.Parbench.median_ns /. 1e6)
    (s4.Parbench.median_ns /. 1e6)
    s4.Parbench.speedup_vs_1 t.min_speedup_at_4;
  if s4.Parbench.speedup_vs_1 < t.min_speedup_at_4 then
    die "check_regress: FAIL — explain-build at 4 domains regressed versus 1 domain"

let write_baseline () =
  let _report, counters = capture_current () in
  let oc = open_out baseline_path in
  Printf.fprintf oc "{\n  \"comment\": %S,\n  \"counters\": {"
    "Deterministic counters of one rnd1k explain-build + diagnose capture at 1 domain \
     (Parbench seed 99).  Regenerate: dune exec bench/check_regress.exe -- --write-baseline";
  List.iteri
    (fun i (name, v) ->
      Printf.fprintf oc "%s\n    \"%s\": %d" (if i > 0 then "," else "")
        (Obs_json.escape name) v)
    counters;
  Printf.fprintf oc "\n  }\n}\n";
  close_out oc;
  Printf.printf "check_regress: wrote %s (%d counters)\n" baseline_path
    (List.length counters)

(* Request-level scaling of the volume service: one warm rnd2k session,
   the same die queue drained at 1 and at >= 2 worker domains, speedup
   as a ratio of best drain times.  The floor is core-count aware: on a
   single-CPU host extra worker domains are pure overhead (~0.8x at 2
   workers), so only the relaxed floor can hold there.  The 2% tolerance
   absorbs run-to-run spawn/handshake jitter. *)
let check_volume_throughput t =
  let report = Volumebench.run ~circuit:"rnd2k" ~worker_counts:[ 1; 2; 4 ] () in
  let cores = Domain.recommended_domain_count () in
  (* The bench no longer times arms with workers > cores (they only
     measure oversubscription) — on a single-core host every multi-worker
     arm is skipped and the scaling floor has no signal to check.  Gate 5
     below still runs off the 1-worker arm. *)
  let timed_multi =
    List.exists (fun s -> s.Volumebench.workers > 1) report.Volumebench.samples
  in
  if not timed_multi then
    Printf.printf
      "check_regress: volume throughput on rnd2k: multi-worker arms skipped \
       (workers %s > %d core%s) — scaling floor not applicable\n%!"
      (String.concat ", " (List.map string_of_int report.Volumebench.skipped_workers))
      cores
      (if cores = 1 then "" else "s")
  else begin
    let speedup = Volumebench.best_speedup report in
    let floor_ =
      if cores <= 1 then t.min_volume_throughput_1cpu else t.min_volume_throughput
    in
    Printf.printf
      "check_regress: volume throughput on rnd2k: best multi-worker speedup %.3fx \
       (floor %.2fx on %d core%s)\n%!"
      speedup floor_ cores
      (if cores = 1 then "" else "s");
    if speedup < floor_ *. 0.98 then
      die
        "check_regress: FAIL — volume multi-worker throughput %.3fx below floor %.2fx"
        speedup floor_
  end;
  (* Gate 5, off the same report (the two arms were interleaved run by
     run): prewarm+frozen drains over lazy-warm drains. *)
  let prewarm_speedup = Volumebench.best_prewarm_speedup report in
  Printf.printf
    "check_regress: prewarm+frozen vs lazy-warm on rnd2k: best ratio %.3fx (floor \
     %.2fx; one-time sweep %.1f ms)\n%!"
    prewarm_speedup t.min_prewarm_speedup report.Volumebench.prewarm_ms;
  if prewarm_speedup < t.min_prewarm_speedup *. 0.98 then
    die "check_regress: FAIL — prewarm+frozen throughput ratio %.3fx below floor %.2fx"
      prewarm_speedup t.min_prewarm_speedup

(* Differential oracle on the covering step (gate 6): greedy vs exact
   on the same seeded rnd1k trial stream.  Counter-free and wall-clock
   free — cover sizes and minimality certificates are deterministic for
   the fixed seed, so this gate never flakes. *)
let check_exact_agreement t =
  let report = Coverbench.run ~circuits:[ "rnd1k" ] ~trials:12 () in
  List.iter
    (fun (row : Coverbench.row) ->
      Printf.printf
        "check_regress: exact cover on %s: %d/%d agree, %d improved, %d larger, %d \
         proved, %d fallbacks\n%!"
        row.Coverbench.circuit row.Coverbench.agree row.Coverbench.trials
        row.Coverbench.improved row.Coverbench.larger row.Coverbench.proved
        row.Coverbench.fallbacks)
    report.Coverbench.rows;
  if Coverbench.any_larger report then
    die
      "check_regress: FAIL — exact cover larger than greedy on some trial (soundness \
       bug: the greedy seed bounds the exact search)";
  let agreement = Coverbench.agreement report in
  Printf.printf "check_regress: greedy/exact agreement %.3f (floor %.2f)\n%!" agreement
    t.min_exact_agreement;
  if agreement < t.min_exact_agreement then
    die "check_regress: FAIL — greedy/exact agreement %.3f below floor %.2f" agreement
      t.min_exact_agreement

(* Gate 7: the restart path.  Snapshot adoption (load + validate +
   publish + first diagnose) against the cold candidate-pool
   simulation, best-over-best ratio on rnd2k.  Also re-asserts that the
   load was accepted at all — [Storebench] fails hard if the snapshot
   it just saved is rejected. *)
let check_store_speedup t =
  let report = Storebench.run ~circuits:[ "rnd2k" ] () in
  List.iter
    (fun (s : Storebench.sample) ->
      Printf.printf
        "check_regress: store on %s: cold %.1f ms, sweep %.1f ms, load %.1f + first \
         %.1f ms => %.2fx (floor %.2fx); arena %.2f MB (file %.2f MB)\n%!"
        s.Storebench.circuit s.Storebench.cold_ms s.Storebench.prewarm_ms
        s.Storebench.load_ms s.Storebench.load_first_ms s.Storebench.load_speedup
        t.min_store_speedup
        (float_of_int s.Storebench.arena_bytes /. 1048576.0)
        (float_of_int s.Storebench.file_bytes /. 1048576.0);
      if not s.Storebench.fits_budget then
        die "check_regress: FAIL — packed arena for %s exceeds the default budget"
          s.Storebench.circuit)
    report.Storebench.samples;
  let speedup = Storebench.min_load_speedup report in
  if speedup < t.min_store_speedup *. 0.98 then
    die "check_regress: FAIL — snapshot-load first diagnose %.2fx below floor %.2fx"
      speedup t.min_store_speedup

let () =
  if Array.mem "--write-baseline" Sys.argv then write_baseline ()
  else
    match Sys.getenv_opt "MDD_BENCH_REGRESS" with
    | None | Some "" ->
      print_endline "check_regress: skipped (set MDD_BENCH_REGRESS=1 to enable)"
    | Some _ ->
      let t = load_thresholds () in
      let _report, current = capture_current () in
      check_counters t current;
      check_cache_hit_rate t;
      check_timing t;
      check_volume_throughput t;
      check_exact_agreement t;
      check_store_speedup t

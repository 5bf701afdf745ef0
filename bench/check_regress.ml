(* Regression gates for the diagnosis kernels, run by every `dune
   runtest`.  Floors and the gated counter list live in thresholds.json,
   committed next to this file, so the gate and its data are one source
   of truth instead of inline literals.

   Three gates, each a function of fixed seeds only — no wall clock, no
   domain count — so none of them can flake:

   1. Counter gate.  The instrumented counters of one explain-build and
      one diagnose on rnd1k (seed 99, one domain), each captured on a
      session that one untimed call has warmed, are compared with the
      committed baseline_stats.json.  Work counters (faults simulated,
      gate events, scoring evaluations, candidate-pool size) and the
      activation screen's drop count must not grow past
      [max_counter_growth] — the kernel-event regressions the
      observability layer exists to catch — nor collapse below
      [min_counter_ratio] of the baseline, which would mean the
      instrumentation itself broke (a counter silently stuck at zero
      passes any growth-only bound).  Every counter the baseline names
      must still be registered, so a stale key cannot sit there
      unnoticed.  Regenerate the baseline after an intentional kernel
      change with:
        dune exec bench/check_regress.exe -- --write-baseline

   2. Cache gate.  The cross-trial hit rate of the fault-signature
      cache over one sequential campaign cell must stay above
      [min_cache_hit_rate] — the first thing to collapse if the cache
      key or the campaign's shared session regresses.

   3. Exact-agreement gate.  Differential oracle on the covering step:
      the same seeded rnd1k trial stream diagnosed under the greedy and
      the exact (implicit hitting-set) backends.  Hard invariant first
      — no trial may produce an exact cover larger than greedy's (the
      greedy result seeds the exact search's upper bound, so a larger
      cover is a soundness bug, not a tuning matter).  Then the
      agreement rate (trials where greedy already matched the proven
      minimum) must stay above [min_exact_agreement].  Greedy
      deliberately trades cardinality for caution (pair moves,
      misprediction discounts), so the measured rate is well under 1.0;
      a drop means greedy's covers got bigger or the exact backend's
      certificates broke.

   Timing claims are not gated here: they go through the end-to-end
   benchmark's interleaved `compare` (benchmark/README.md). *)

let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt

let thresholds_path = "thresholds.json"
let baseline_path = "baseline_stats.json"

type thresholds = {
  min_cache_hit_rate : float;
  max_counter_growth : float;
  min_counter_ratio : float;
  min_exact_agreement : float;
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
    min_cache_hit_rate = fnum "min_cache_hit_rate";
    max_counter_growth = fnum "max_counter_growth";
    min_counter_ratio = fnum "min_counter_ratio";
    min_exact_agreement = fnum "min_exact_agreement";
    gated_counters;
  }

let rnd1k () =
  match Generators.find_suite "rnd1k" with
  | Some n -> n
  | None -> die "check_regress: rnd1k missing from the suite"

(* [n] failing datalogs from one seeded stream of 3-defect draws. *)
let draw_dlogs net pats ~seed n =
  let rng = Rng.create seed in
  let expected = Logic_sim.responses net pats in
  let rec draw attempts =
    if attempts = 0 then die "check_regress: no failing defect combination found"
    else begin
      let defects = Injection.random_defects rng net Injection.default_mix 3 in
      let observed = Injection.observed_responses net pats defects in
      let dlog = Datalog.of_responses ~expected ~observed in
      if Datalog.num_failing dlog = 0 then draw (attempts - 1) else dlog
    end
  in
  List.init n (fun _ -> draw 50)

(* Every registered counter after [f] runs under a private sink. *)
let counters_of f =
  let sk = Obs.sink () in
  Obs.with_sink sk f;
  (Obs.sink_snapshot sk).Obs.counters

let session_at_1 ?(cover = Session.Greedy) net pats =
  Session.create
    ~config:{ Session.default_config with Session.domains = Some 1; cover }
    net pats

(* The summed counters of the two kernels, each captured on its own
   session that one untimed call has warmed: the steady state of a
   session serving its second die. *)
let capture_current () =
  let net = rnd1k () in
  let pats = Campaign.test_set net in
  let dlog = List.hd (draw_dlogs net pats ~seed:99 1) in
  let kernels =
    [
      (fun s -> ignore (Explain.build_session s dlog));
      (fun s -> ignore (Noassume.diagnose_session s dlog));
    ]
  in
  let tally = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let s = session_at_1 net pats in
      f s;
      List.iter
        (fun (name, v) ->
          Hashtbl.replace tally name
            (v + Option.value ~default:0 (Hashtbl.find_opt tally name)))
        (counters_of (fun () -> f s)))
    kernels;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tally [] |> List.sort compare

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
   probes.  Sequential, so no two trials race on a cold key and the
   hit/miss split is deterministic.  A collapsed hit rate means the
   cache key, the campaign's shared session or the eviction budget
   broke — results stay correct, but the cross-phase reuse the cache
   exists for is gone. *)
let check_cache_hit_rate t =
  let net = rnd1k () in
  let counters =
    counters_of (fun () ->
        ignore
          (Campaign.run ~methods:Campaign.all_methods ~domains:1 ~name:"rnd1k" net
             ~multiplicity:3 ~trials:4 ~seed:99))
  in
  let counter name = Option.value ~default:0 (List.assoc_opt name counters) in
  let hits = counter "cache.hits" and misses = counter "cache.misses" in
  let rate =
    if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)
  in
  Printf.printf
    "check_regress: cache hit rate %.3f (%d hits / %d misses, floor %.2f)\n%!" rate
    hits misses t.min_cache_hit_rate;
  if rate < t.min_cache_hit_rate then
    die "check_regress: FAIL — campaign cache hit rate %.3f below floor %.2f" rate
      t.min_cache_hit_rate

(* Greedy vs exact on one seeded rnd1k trial stream.  Validation is off
   so the multiplet is exactly the chosen cover: the comparison isolates
   the covering step, which is what the two backends differ on. *)
let check_exact_agreement t =
  let net = rnd1k () in
  let pats = Campaign.test_set net in
  let dlogs = draw_dlogs net pats ~seed:77 12 in
  let config = { Noassume.default_config with validate = false } in
  let arm cover =
    let session = session_at_1 ~cover net pats in
    List.map (fun dlog -> Noassume.diagnose_session ~config session dlog) dlogs
  in
  let greedy = arm Session.Greedy and exact = arm Session.Exact in
  let size r = List.length r.Noassume.multiplet in
  let pairs = List.map2 (fun g e -> (size g, size e)) greedy exact in
  let count p l = List.length (List.filter p l) in
  let agree = count (fun (g, e) -> g = e) pairs
  and larger = count (fun (g, e) -> e > g) pairs in
  Printf.printf
    "check_regress: exact cover on rnd1k: %d/%d agree, %d improved, %d larger, %d \
     proved, %d fallbacks\n%!"
    agree (List.length pairs)
    (count (fun (g, e) -> e < g) pairs)
    larger
    (count (fun r -> r.Noassume.cover_minimum <> None) exact)
    (count (fun r -> not r.Noassume.cover_complete) exact);
  if larger > 0 then
    die
      "check_regress: FAIL — exact cover larger than greedy on some trial (soundness \
       bug: the greedy seed bounds the exact search)";
  let agreement = float_of_int agree /. float_of_int (List.length pairs) in
  Printf.printf "check_regress: greedy/exact agreement %.3f (floor %.2f)\n%!" agreement
    t.min_exact_agreement;
  if agreement < t.min_exact_agreement then
    die "check_regress: FAIL — greedy/exact agreement %.3f below floor %.2f" agreement
      t.min_exact_agreement

let write_baseline () =
  let counters = capture_current () in
  let oc = open_out baseline_path in
  Printf.fprintf oc "{\n  \"comment\": %S,\n  \"counters\": {"
    "Deterministic counters of one rnd1k explain-build + diagnose capture at 1 domain \
     (check_regress seed 99).  Regenerate: dune exec bench/check_regress.exe -- \
     --write-baseline";
  List.iteri
    (fun i (name, v) ->
      Printf.fprintf oc "%s\n    \"%s\": %d" (if i > 0 then "," else "")
        (Obs_json.escape name) v)
    counters;
  Printf.fprintf oc "\n  }\n}\n";
  close_out oc;
  Printf.printf "check_regress: wrote %s (%d counters)\n" baseline_path
    (List.length counters)

let () =
  if Array.mem "--write-baseline" Sys.argv then write_baseline ()
  else begin
    let t = load_thresholds () in
    check_counters t (capture_current ());
    check_cache_hit_rate t;
    check_exact_agreement t
  end

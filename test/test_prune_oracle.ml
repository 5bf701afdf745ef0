(* Oracle for the exactness-preserving prunes and the cross-phase
   signature cache.  The pruned matrix must answer, candidate by
   candidate, exactly as brute-force simulation of the full seed pool
   does, and every seed the activation screen dropped must explain
   nothing; every diagnosis report must be byte-identical whether its
   signatures were simulated (a cold session), replayed from what the
   first diagnosis appended to the arena (the same session, warm) or
   from an arena filled before any diagnosis (a prewarmed session) — on random circuits, all defect kinds,
   multiplicities 1-4 — and a shared cache hammered from several
   domains at once must not change any result. *)

let random_problem seed multiplicity =
  let gates = 30 + (seed mod 150) in
  let net = Generators.random_logic ~gates ~pis:6 ~pos:5 ~seed in
  let rng = Rng.create (seed * 31) in
  let pats = Pattern.random rng ~npis:6 ~count:96 in
  let expected = Logic_sim.responses net pats in
  let k = min multiplicity (max 1 (Injection.capacity net / 4)) in
  let defects = Injection.random_defects rng net Injection.default_mix k in
  let observed = Injection.observed_responses net pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  (net, pats, dlog)

(* [render] on a cold session (its first diagnosis simulates every
   signature: the uncached computation), on the same session again (now
   warm: every signature is a cache hit) and on a prewarmed session
   (every signature is in the arena before the first diagnosis). *)
let cold_warm_frozen net pats render =
  let session = Session.create net pats in
  let cold = render session in
  let warm = render session in
  let frozen =
    let session = Session.create net pats in
    ignore (Session.prewarm session : int);
    render session
  in
  [ cold; warm; frozen ]

let all_equal = function [] -> true | x :: rest -> List.for_all (String.equal x) rest

let prop_noassume_report_identical =
  QCheck.Test.make
    ~name:"Noassume report: pruned+cached = pruned+uncached (byte-identical)"
    ~count:12
    QCheck.(pair (int_range 1 100_000) (int_range 1 4))
    (fun (seed, multiplicity) ->
      let net, pats, dlog = random_problem seed multiplicity in
      if Datalog.num_failing dlog = 0 then true
      else begin
        all_equal
          (cold_warm_frozen net pats (fun session ->
               Report.render net (Noassume.diagnose_session session dlog)))
      end)

(* Matrix-level oracle, finer than the report: the test rebuilds the
   full seed pool itself (both polarities of every net in the failing
   outputs' fan-in cones) and simulates every seed by brute force.
   Every candidate the pruned build keeps — class members answer from a
   shared row — must match its brute-force row exactly, and every seed
   the activation screen dropped must cover nothing. *)
let prop_matrix_rows_match =
  QCheck.Test.make
    ~name:"Explain.build: pruned rows = unpruned brute-force rows; screened seeds cover nothing"
    ~count:15
    QCheck.(pair (int_range 1 100_000) (int_range 1 4))
    (fun (seed, multiplicity) ->
      let net, pats, dlog = random_problem seed multiplicity in
      let m = Explain.build_session (Session.create net pats) dlog in
      let pool = Reference.seed_pool net dlog in
      let covers, matched, spurious, mispredict_pass =
        Reference.naive_matrices net pats dlog pool
      in
      let failing = Explain.failing m in
      let nfp = Array.length failing in
      let nfail_pos = Array.map (fun p -> List.length (Datalog.failing_pos dlog p)) failing in
      let row_equal c i =
        Bitvec.equal (Explain.covers m c) covers.(i)
        && Explain.mispredict_pass m c = mispredict_pass.(i)
        && Explain.mispredict_fail m c = Array.fold_left ( + ) 0 spurious.(i)
        &&
        let ok = ref true in
        for fp = 0 to nfp - 1 do
          let exact = matched.(i).(fp) = nfail_pos.(fp) && spurious.(i).(fp) = 0 in
          if
            Explain.matched m c fp <> matched.(i).(fp)
            || Explain.spurious_any m c fp <> (spurious.(i).(fp) > 0)
            || Explain.exact m c fp <> exact
          then ok := false
        done;
        !ok
      in
      let kept = ref 0 in
      let rows_ok =
        Array.for_all Fun.id
          (Array.mapi
             (fun i f ->
               match Explain.find_candidate m f with
               | Some c ->
                 incr kept;
                 row_equal c i
               | None -> Bitvec.is_empty covers.(i))
             pool)
      in
      Array.length pool = Explain.num_seeded m
      && rows_ok
      && !kept = Array.length (Explain.candidates m))

let prop_single_and_slat_reports_identical =
  QCheck.Test.make
    ~name:"Single/SLAT reports: cached = uncached (byte-identical)" ~count:10
    QCheck.(pair (int_range 1 100_000) (int_range 1 4))
    (fun (seed, multiplicity) ->
      let net, pats, dlog = random_problem seed multiplicity in
      if Datalog.num_failing dlog = 0 then true
      else begin
        all_equal
          (cold_warm_frozen net pats (fun session ->
               Report.render_single net (Single_diag.diagnose_session session dlog)))
        && all_equal
             (cold_warm_frozen net pats (fun session ->
                  let m = Explain.build_session session dlog in
                  Report.render_slat net (Slat_diag.diagnose m)))
      end)

(* Several domains race on one cold shared cache, each running a full
   diagnosis of the same problem.  Whoever loses a store race recomputes
   or overwrites with the identical value, so every domain must still
   produce the reference report. *)
let test_concurrent_shared_cache () =
  let net, pats, dlog = random_problem 4242 3 in
  Alcotest.(check bool) "problem has failures" true (Datalog.num_failing dlog > 0);
  let diagnose session () = Report.render net (Noassume.diagnose_session session dlog) in
  let reference = diagnose (Session.create net pats) () in
  for round = 1 to 3 do
    (* A fresh session per round re-creates the cache instance cold, so
       the four domains race on an empty shared cache every time. *)
    let session = Session.create net pats in
    let workers = Array.init 4 (fun _ -> Domain.spawn (diagnose session)) in
    Array.iteri
      (fun i d ->
        Alcotest.(check string)
          (Printf.sprintf "round %d worker %d" round i)
          reference (Domain.join d))
      workers
  done

let suite =
  [
    ( "prune-oracle",
      [
        Alcotest.test_case "concurrent domains share one cache" `Slow
          test_concurrent_shared_cache;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [
            prop_noassume_report_identical;
            prop_matrix_rows_match;
            prop_single_and_slat_reports_identical;
          ] );
  ]

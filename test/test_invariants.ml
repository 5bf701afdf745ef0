(* Cross-stack differential properties: random circuits x random defect
   sets, asserting end-to-end invariants that every layer must uphold
   simultaneously.  These are the tests that catch interface drift the
   per-module suites cannot see. *)

let random_problem seed k =
  let gates = 30 + (seed mod 120) in
  let net = Generators.random_logic ~gates ~pis:6 ~pos:4 ~seed in
  let rng = Rng.create (seed * 7) in
  let pats = Pattern.random rng ~npis:6 ~count:64 in
  let expected = Logic_sim.responses net pats in
  let k = min k (max 1 (Injection.capacity net / 4)) in
  let defects = Injection.random_defects rng net Injection.default_mix k in
  let observed = Injection.observed_responses net pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  (net, pats, expected, observed, defects, dlog)

(* The injected truth, simulated as an overlay, always scores perfectly
   against its own datalog. *)
let prop_truth_scores_perfect =
  QCheck.Test.make ~name:"truth overlay is a perfect explanation" ~count:40
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let net, pats, _, _, defects, dlog = random_problem seed 3 in
      Scoring.penalty (Reference.evaluate net pats dlog (Defect.overlay_all defects)) = 0)

(* The datalog reconstructs the exact diff of expected vs observed. *)
let prop_datalog_faithful =
  QCheck.Test.make ~name:"datalog = response diff" ~count:40
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let net, pats, expected, observed, _, dlog = random_problem seed 2 in
      ignore net;
      let ok = ref true in
      for p = 0 to Pattern.count pats - 1 do
        for oi = 0 to Array.length expected - 1 do
          let mismatch = Bitvec.get expected.(oi) p <> Bitvec.get observed.(oi) p in
          let logged = List.mem oi (Datalog.failing_pos dlog p) in
          if mismatch <> logged then ok := false
        done
      done;
      !ok)

(* Diagnosis never reports nets outside the circuit, never crashes, and
   its reported score matches an independent re-simulation of its own
   multiplet. *)
let prop_diagnosis_wellformed =
  QCheck.Test.make ~name:"diagnosis output is well-formed and score re-checks" ~count:25
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let net, pats, _, _, _, dlog = random_problem seed 3 in
      if Datalog.num_failing dlog = 0 then true
      else begin
        let r = Noassume.diagnose_session (Session.create net pats) dlog in
        let nets_ok =
          List.for_all
            (fun n -> n >= 0 && n < Netlist.num_nets net)
            (Noassume.callout_nets r)
        in
        (* The reported score must equal a fresh evaluation of the
           multiplet, unless a confirmed bridge replaced a member's
           behaviour (then it can only be better or equal). *)
        let fresh =
          Scoring.evaluate_multiplet
            (Scoring.create (Session.create net pats) dlog)
            r.Noassume.multiplet
        in
        nets_ok && Scoring.penalty r.Noassume.score <= Scoring.penalty fresh
      end)

(* Metrics: diagnosability is hits/injected; callouts on the exact defect
   nets always hit. *)
let prop_metrics_consistent =
  QCheck.Test.make ~name:"metrics arithmetic is consistent" ~count:40
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let net, _, _, _, defects, _ = random_problem seed 2 in
      let callouts = List.concat_map Defect.nets defects in
      let q = Metrics.evaluate net ~injected:defects ~callouts in
      q.Metrics.hits = q.Metrics.injected
      && q.Metrics.success
      && abs_float (q.Metrics.diagnosability -. 1.0) < 1e-9)

(* Format roundtrips preserve behaviour for arbitrary random circuits. *)
let prop_format_roundtrips =
  QCheck.Test.make ~name:"bench and verilog roundtrips preserve behaviour" ~count:20
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let net = Generators.random_logic ~gates:40 ~pis:5 ~pos:3 ~seed in
      let pats = Pattern.random (Rng.create seed) ~npis:5 ~count:32 in
      let r0 = Logic_sim.responses net pats in
      let via_bench = Bench_io.parse_string (Bench_io.to_string net) in
      let via_verilog = Verilog_io.parse_string (Verilog_io.to_string net) in
      Array.for_all2 Bitvec.equal r0 (Logic_sim.responses via_bench pats)
      && Array.for_all2 Bitvec.equal r0 (Logic_sim.responses via_verilog pats))

(* The SLAT fraction of a single stuck defect is always 1. *)
let prop_single_stuck_slat =
  QCheck.Test.make ~name:"single stuck defects are always SLAT" ~count:25
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let net = Generators.random_logic ~gates:50 ~pis:6 ~pos:4 ~seed in
      let rng = Rng.create (seed + 1) in
      let pats = Pattern.random rng ~npis:6 ~count:64 in
      let mix = Option.get (Injection.mix_of_string "stuck") in
      let defects = Injection.random_defects rng net mix 1 in
      let expected = Logic_sim.responses net pats in
      let observed = Injection.observed_responses net pats defects in
      let dlog = Datalog.of_responses ~expected ~observed in
      Datalog.num_failing dlog = 0
      ||
      let m = Explain.build_session (Session.create net pats) dlog in
      Slat_diag.slat_fraction (Slat_diag.classify m) = 1.0)

(* Contributing defects: by definition, removing a single defect that
   the filter kept must change some response.  (Removing all the
   dropped ones at once is NOT sound in general: two defects can mask
   each other pairwise while mattering jointly.) *)
let prop_contributing_definition =
  QCheck.Test.make ~name:"each contributing defect matters marginally" ~count:25
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let net, pats, _, observed, defects, _ = random_problem seed 4 in
      let contributing = Injection.contributing net pats defects in
      List.for_all
        (fun d ->
          let rest = List.filter (fun d' -> d' != d) defects in
          let without = Injection.observed_responses net pats rest in
          not (Array.for_all2 Bitvec.equal observed without))
        contributing)

let suite =
  [
    ( "invariants",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_truth_scores_perfect;
          prop_datalog_faithful;
          prop_diagnosis_wellformed;
          prop_metrics_consistent;
          prop_format_roundtrips;
          prop_single_stuck_slat;
          prop_contributing_definition;
        ] );
  ]

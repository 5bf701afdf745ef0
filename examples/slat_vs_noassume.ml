(* The paper's motivating scenario, concretely: two interacting defects
   whose mixed failing patterns violate the SLAT assumption.  The SLAT
   baseline silently discards those patterns; the no-assumption engine
   explains them observation by observation.

   Run with: dune exec examples/slat_vs_noassume.exe *)

let () =
  let net = Generators.ripple_adder 8 in
  let pats = Campaign.test_set net in
  let expected = Logic_sim.responses net pats in

  (* A hard stuck plus an intermittent in an overlapping carry cone — a
     combination that reliably produces non-SLAT failing patterns. *)
  let g name = Option.get (Netlist.find net name) in
  let defects =
    [
      Defect.Stuck (g "fa2_co", true);
      Defect.Intermittent { site = g "fa5_axb"; salt = 17; rate_pct = 60 };
    ]
  in
  List.iter (fun d -> Format.printf "injected: %s@." (Defect.describe net d)) defects;

  let observed = Injection.observed_responses net pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  Format.printf "datalog: %d failing patterns@.@." (Datalog.num_failing dlog);

  let matrix = Explain.build_session (Session.create net pats) dlog in

  (* 1. What a SLAT classifier sees. *)
  let classification = Slat.classify matrix in
  Format.printf
    "SLAT classification: %d SLAT, %d non-SLAT (%.0f%% usable by SLAT tools)@."
    (List.length classification.Slat.slat)
    (List.length classification.Slat.non_slat)
    (100.0 *. Slat.slat_fraction classification);

  (* 2. The SLAT baseline: diagnoses only the SLAT patterns. *)
  let slat_result = Slat_diag.diagnose matrix in
  Format.printf "@.--- SLAT-based baseline ---@.";
  print_string (Report.render_slat net slat_result);
  let slat_q =
    Metrics.evaluate net ~injected:defects ~callouts:(Slat_diag.callout_nets slat_result)
  in
  Format.printf "located %d of %d defects@." slat_q.Metrics.hits slat_q.Metrics.injected;

  (* 3. The proposed method: every observation counts. *)
  let result = Noassume.diagnose_matrix matrix in
  Format.printf "@.--- no-assumption diagnosis ---@.";
  print_string (Report.render net result);
  let q =
    Metrics.evaluate net ~injected:defects ~callouts:(Noassume.callout_nets result)
  in
  Format.printf "located %d of %d defects (resolution %.2f)@." q.Metrics.hits
    q.Metrics.injected q.Metrics.resolution

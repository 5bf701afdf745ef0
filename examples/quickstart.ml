(* Quickstart: inject two interacting defects into the c17 benchmark,
   diagnose with the no-assumption method, and print the report.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. A circuit.  Parse any ISCAS-85 `.bench` text, or pick a generator. *)
  let net = Generators.c17 () in
  Format.printf "circuit: %a@." Netlist.pp_stats net;

  (* 2. A test set: the built-in ATPG flow (random + PODEM top-off). *)
  let report = Tpg.generate ~seed:1 net in
  Format.printf "test set: %d patterns, %.1f%% stuck-at coverage@."
    (Pattern.count report.Tpg.patterns)
    (100.0 *. report.Tpg.coverage);
  let pats = report.Tpg.patterns in

  (* 3. Ground truth: two defects injected simultaneously — a stuck line
     and a dominant bridge.  Their overlay is simulated together, so the
     datalog contains their interaction. *)
  let g10 = Option.get (Netlist.find net "G10") in
  let g16 = Option.get (Netlist.find net "G16") in
  let g11 = Option.get (Netlist.find net "G11") in
  let defects =
    [
      Defect.Stuck (g10, true);
      Defect.Bridge { victim = g16; aggressor = g11; kind = Defect.Dominant };
    ]
  in
  List.iter (fun d -> Format.printf "injected: %s@." (Defect.describe net d)) defects;

  (* 4. The tester: observed responses -> datalog. *)
  let expected = Logic_sim.responses net pats in
  let observed = Injection.observed_responses net pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  Format.printf "datalog: %d failing patterns@." (Datalog.num_failing dlog);

  (* 5. Diagnosis: a session holds everything the circuit and test set
     determine (good-machine values, signature cache); each die's
     datalog is then diagnosed against it. *)
  let session = Session.create net pats in
  let result = Noassume.diagnose_session session dlog in
  print_string (Report.render net result);

  (* 6. Score against ground truth. *)
  let quality =
    Metrics.evaluate net ~injected:defects ~callouts:(Noassume.callout_nets result)
  in
  Format.printf "diagnosability %.0f%%, resolution %.2f, success %b@."
    (100.0 *. quality.Metrics.diagnosability)
    quality.Metrics.resolution quality.Metrics.success

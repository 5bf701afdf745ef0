(* Bridge case study, mirroring the silicon-validation narratives of
   diagnosis papers: a tester returns a datalog, diagnosis proposes a
   victim plus candidate aggressors, simulation confirms one bridge
   hypothesis, and physical failure analysis would then image exactly
   those two wires.

   Run with: dune exec examples/bridge_case_study.exe *)

let () =
  let net = Generators.alu 8 in
  let pats = Campaign.test_set net in
  let expected = Logic_sim.responses net pats in
  let g name = Option.get (Netlist.find net name) in

  (* Ground truth: a dominant short between an XOR lane and an AND lane —
     nets from unrelated functions of the ALU. *)
  let victim = g "xor5" in
  let aggressor = g "and2" in
  let defect = Defect.Bridge { victim; aggressor; kind = Defect.Dominant } in
  Format.printf "silicon ground truth: %s@.@." (Defect.describe net defect);

  let observed = Injection.observed_responses net pats [ defect ] in
  let dlog = Datalog.of_responses ~expected ~observed in
  Format.printf "tester datalog: %d failing patterns out of %d@."
    (Datalog.num_failing dlog) (Pattern.count pats);

  let result = Noassume.diagnose_session (Session.create net pats) dlog in
  print_string (Report.render net result);

  (* Was the bridge confirmed with the right aggressor? *)
  let confirmed =
    List.concat_map
      (fun (c : Noassume.callout) ->
        List.filter_map
          (function
            | Noassume.Bridge_confirmed { aggressor = a; kind } -> Some (c.site, a, kind)
            | Noassume.Stuck_at _ | Noassume.Bridge_victim _ | Noassume.Byzantine -> None)
          c.models)
      result.Noassume.callouts
  in
  (match confirmed with
  | [] -> Format.printf "@.no bridge hypothesis survived simulation@."
  | l ->
    List.iter
      (fun (v, a, _) ->
        Format.printf "@.simulation-confirmed bridge: %s <-> %s@." (Netlist.name net v)
          (Netlist.name net a))
      l);
  let q =
    Metrics.evaluate net ~injected:[ defect ] ~callouts:(Noassume.callout_nets result)
  in
  Format.printf "ground truth located: %b (first hit at rank %s)@." (q.Metrics.hits = 1)
    (match q.Metrics.first_hit_rank with Some r -> string_of_int r | None -> "-")

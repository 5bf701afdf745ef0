(* Adaptive diagnosis walkthrough: a thin production test set leaves the
   diagnosis ambiguous; the engine designs its own follow-up patterns,
   "applies" them to the failing die, and watches the hypothesis set
   collapse.

   Run with: dune exec examples/adaptive_retest.exe *)

let () =
  let net = Generators.comparator 16 in
  let g name = Option.get (Netlist.find net name) in
  let defect = [ Defect.Stuck (g "eq7", false) ] in
  Format.printf "circuit: %a@." Netlist.pp_stats net;
  Format.printf "ground truth: %s@.@." (Defect.describe net (List.hd defect));

  (* A deliberately thin initial test set: 12 random patterns. *)
  let rng = Rng.create 2024 in
  let rec initial attempt =
    if attempt > 50 then failwith "defect never detected"
    else begin
      let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:12 in
      let expected = Logic_sim.responses net pats in
      let observed = Injection.observed_responses net pats defect in
      let dlog = Datalog.of_responses ~expected ~observed in
      if Datalog.num_failing dlog = 0 then initial (attempt + 1) else (pats, dlog)
    end
  in
  let pats, dlog = initial 0 in
  Format.printf "initial evidence: %d patterns, %d failing@." (Pattern.count pats)
    (Datalog.num_failing dlog);

  let m = Explain.build_session (Session.create net pats) dlog in
  let exact = Exact_cover.solve ~max_solutions:8 m in
  Format.printf "minimum explanations consistent with the evidence: %d@."
    (List.length exact.Exact_cover.multiplets);
  List.iteri
    (fun i sol ->
      Format.printf "  hypothesis %d: %s@." (i + 1)
        (String.concat ", "
           (List.map (Format.asprintf "%a" (Fault_list.pp_fault net)) sol)))
    exact.Exact_cover.multiplets;

  (* The tester: applies one vector to the physical die. *)
  let tester vector =
    let p1 = Pattern.of_list ~npis:(Netlist.num_pis net) [ vector ] in
    let obs = Injection.observed_responses net p1 defect in
    Array.init (Netlist.num_pos net) (fun oi -> Bitvec.get obs.(oi) 0)
  in
  let progress = Distinguish.sharpen net pats dlog ~tester ~rng in
  Format.printf "@.adaptive retest: %d distinguishing patterns applied@."
    progress.Distinguish.added;
  Format.printf "hypotheses: %d -> %d@." progress.Distinguish.solutions_before
    progress.Distinguish.solutions_after;
  List.iteri
    (fun i sol ->
      Format.printf "  surviving hypothesis %d: %s@." (i + 1)
        (String.concat ", "
           (List.map (Format.asprintf "%a" (Fault_list.pp_fault net)) sol)))
    progress.Distinguish.survivors;

  (* The adaptive flow's deliverable is the surviving hypothesis set:
     the failure analyst images those few sites. *)
  let survivor_nets =
    List.sort_uniq compare
      (List.concat_map
         (List.map (fun f -> f.Fault_list.site))
         progress.Distinguish.survivors)
  in
  let q = Metrics.evaluate net ~injected:defect ~callouts:survivor_nets in
  Format.printf "@.ground truth among surviving hypotheses: %b (%d sites for PFA)@."
    (q.Metrics.hits = 1) (List.length survivor_nets)

let g net name = Option.get (Netlist.find net name)

let test_distinguishing_pattern_found () =
  (* G10 sa1 and G19 sa1 on c17 affect different outputs; a separating
     pattern must exist and actually separate them. *)
  let net = Generators.c17 () in
  let rng = Rng.create 121 in
  let a = [ { Fault_list.site = g net "G10"; stuck = true } ] in
  let b = [ { Fault_list.site = g net "G19"; stuck = true } ] in
  match Distinguish.distinguishing_pattern net rng a b with
  | None -> Alcotest.fail "no distinguishing pattern found"
  | Some vector ->
    let pats = Pattern.of_list ~npis:5 [ vector ] in
    let ra = Logic_sim.responses_overlay net pats (Scoring.overlay_of_multiplet a) in
    let rb = Logic_sim.responses_overlay net pats (Scoring.overlay_of_multiplet b) in
    Alcotest.(check bool) "responses differ" false (Array.for_all2 Bitvec.equal ra rb)

let test_equivalent_multiplets_none () =
  (* A multiplet is never distinguishable from itself. *)
  let net = Generators.c17 () in
  let rng = Rng.create 122 in
  let a = [ { Fault_list.site = g net "G16"; stuck = false } ] in
  Alcotest.(check bool) "self" true
    (Distinguish.distinguishing_pattern ~attempts:3 net rng a a = None)

let test_sharpen_reduces_ambiguity () =
  (* A tiny initial test set leaves several minimum explanations for a
     stuck defect; adaptive patterns must cut them down and keep the
     truth alive. *)
  let net = Generators.ripple_adder 8 in
  let site = g net "fa4_c1" in
  let defect = [ Defect.Stuck (site, true) ] in
  let rng = Rng.create 123 in
  (* Search a seed whose ambiguity spans more than one structural
     equivalence class — ambiguity inside one collapsed class (e.g. the
     inputs and output of a fanout-free OR) is irreducible by any
     pattern and sharpening rightly leaves it alone. *)
  let collapsed = Fault_list.collapse net in
  let class_signature sol =
    List.sort compare (List.map (Fault_list.representative_of collapsed) sol)
  in
  let found = ref None in
  let attempt = ref 0 in
  while !found = None && !attempt < 40 do
    incr attempt;
    let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:8 in
    let expected = Logic_sim.responses net pats in
    let observed = Injection.observed_responses net pats defect in
    let dlog = Datalog.of_responses ~expected ~observed in
    if Datalog.num_failing dlog > 0 then begin
      let m = Explain.build_session (Session.create net pats) dlog in
      let r = Exact_cover.solve ~max_solutions:8 m in
      let distinct_classes =
        List.sort_uniq compare (List.map class_signature r.Exact_cover.multiplets)
      in
      if r.Exact_cover.complete && List.length distinct_classes > 1 then
        found := Some (pats, dlog)
    end
  done;
  match !found with
  | None -> Alcotest.fail "could not build an ambiguous starting point"
  | Some (pats, dlog) ->
    let tester vector =
      let p1 = Pattern.of_list ~npis:(Netlist.num_pis net) [ vector ] in
      let obs = Injection.observed_responses net p1 defect in
      Array.init (Netlist.num_pos net) (fun oi -> Bitvec.get obs.(oi) 0)
    in
    let progress = Distinguish.sharpen net pats dlog ~tester ~rng in
    Alcotest.(check bool) "ambiguity reduced" true
      (progress.Distinguish.solutions_after < progress.Distinguish.solutions_before);
    Alcotest.(check bool) "patterns were added" true (progress.Distinguish.added > 0);
    (* Re-diagnose with the sharpened evidence: the defect site is hit. *)
    let r =
      Noassume.diagnose_session
        (Session.create net progress.Distinguish.patterns)
        progress.Distinguish.dlog
    in
    let q =
      Metrics.evaluate net ~injected:defect ~callouts:(Noassume.callout_nets r)
    in
    Alcotest.(check bool) "still located" true (q.Metrics.hits = 1)

let test_sharpen_noop_when_unambiguous () =
  let net = Generators.c17 () in
  let site = g net "G16" in
  let pats = Pattern.exhaustive ~npis:5 in
  let expected = Logic_sim.responses net pats in
  let observed = Injection.observed_responses net pats [ Defect.Stuck (site, true) ] in
  let dlog = Datalog.of_responses ~expected ~observed in
  let rng = Rng.create 124 in
  let tester _ = Alcotest.fail "tester must not be called when unambiguous" in
  let m = Explain.build_session (Session.create net pats) dlog in
  let r = Exact_cover.solve ~max_solutions:8 m in
  if List.length r.Exact_cover.multiplets <= 1 then begin
    let progress = Distinguish.sharpen net pats dlog ~tester ~rng in
    Alcotest.(check int) "nothing added" 0 progress.Distinguish.added
  end

let suite =
  [
    ( "distinguish",
      [
        Alcotest.test_case "pattern found" `Quick test_distinguishing_pattern_found;
        Alcotest.test_case "self indistinguishable" `Quick test_equivalent_multiplets_none;
        Alcotest.test_case "sharpen reduces ambiguity" `Quick test_sharpen_reduces_ambiguity;
        Alcotest.test_case "sharpen noop when unambiguous" `Quick
          test_sharpen_noop_when_unambiguous;
      ] );
  ]

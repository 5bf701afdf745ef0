let problem defects =
  let net = Generators.c17 () in
  let pats = Pattern.exhaustive ~npis:5 in
  let expected = Logic_sim.responses net pats in
  let observed = Injection.observed_responses net pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  (net, pats, dlog, Explain.build_session (Session.create net pats) dlog)

let g net name = Option.get (Netlist.find net name)

let test_single_stuck_all_slat () =
  (* A single stuck defect is its own exact explainer on every failing
     pattern: SLAT fraction 1. *)
  let net = Generators.c17 () in
  let g16 = g net "G16" in
  let _, _, dlog, m = problem [ Defect.Stuck (g16, true) ] in
  let c = Slat.classify m in
  Alcotest.(check int) "no non-slat" 0 (List.length c.Slat.non_slat);
  Alcotest.(check int) "all failing slat" (Datalog.num_failing dlog)
    (List.length c.Slat.slat);
  Alcotest.(check bool) "fraction 1" true (Slat.slat_fraction c = 1.0);
  (* The true fault is among the explainers of every SLAT pattern. *)
  List.iter
    (fun (_, faults) ->
      Alcotest.(check bool) "true fault explains" true
        (List.exists
           (fun f -> f.Fault_list.site = g16 && f.Fault_list.stuck)
           faults))
    c.Slat.explainers

let test_explainers_listed_only_for_slat () =
  let net = Generators.c17 () in
  let _, _, _, m = problem [ Defect.Stuck (g net "G10", false) ] in
  let c = Slat.classify m in
  Alcotest.(check int) "one explainer list per slat pattern"
    (List.length c.Slat.slat) (List.length c.Slat.explainers);
  List.iter
    (fun (p, faults) ->
      Alcotest.(check bool) "pattern is slat" true (List.mem p c.Slat.slat);
      Alcotest.(check bool) "non-empty" true (faults <> []))
    c.Slat.explainers

let test_interacting_defects_break_slat () =
  (* Two stuck defects whose cones overlap produce mixed responses on
     patterns where both are active; typically some failing patterns stop
     being SLAT.  Use a crafted case on c17 where interaction is
     guaranteed: G10 sa1 and G16 sa1 both feed G22. *)
  let net = Generators.c17 () in
  let defects = [ Defect.Stuck (g net "G10", true); Defect.Stuck (g net "G11", true) ] in
  let _, _, dlog, m = problem defects in
  let c = Slat.classify m in
  (* At minimum the classification is consistent. *)
  Alcotest.(check int) "partition" (Datalog.num_failing dlog)
    (List.length c.Slat.slat + List.length c.Slat.non_slat)

let test_fraction_empty () =
  Alcotest.(check bool) "empty = 1.0" true
    (Slat.slat_fraction { Slat.slat = []; non_slat = []; explainers = [] } = 1.0);
  Alcotest.(check bool) "half" true
    (abs_float
       (Slat.slat_fraction { Slat.slat = [ 1 ]; non_slat = [ 2 ]; explainers = [] } -. 0.5)
    < 1e-9)

(* Statistical: across random 3-defect injections on add8, the SLAT
   fraction drops below 1 for a decent share of trials — the paper's
   motivating observation. *)
let test_multiplicity_reduces_slat () =
  let net = Generators.ripple_adder 8 in
  let pats = Pattern.random (Rng.create 3) ~npis:(Netlist.num_pis net) ~count:64 in
  let expected = Logic_sim.responses net pats in
  let rng = Rng.create 51 in
  let fractions = ref [] in
  for _ = 1 to 15 do
    let defects = Injection.random_defects rng net Injection.default_mix 3 in
    let observed = Injection.observed_responses net pats defects in
    let dlog = Datalog.of_responses ~expected ~observed in
    if Datalog.num_failing dlog > 0 then begin
      let m = Explain.build_session (Session.create net pats) dlog in
      fractions := Slat.slat_fraction (Slat.classify m) :: !fractions
    end
  done;
  Alcotest.(check bool) "some trials below 1" true
    (List.exists (fun f -> f < 1.0) !fractions)

let suite =
  [
    ( "slat",
      [
        Alcotest.test_case "single stuck all SLAT" `Quick test_single_stuck_all_slat;
        Alcotest.test_case "explainers only for SLAT" `Quick
          test_explainers_listed_only_for_slat;
        Alcotest.test_case "interaction partition" `Quick test_interacting_defects_break_slat;
        Alcotest.test_case "fraction edge cases" `Quick test_fraction_empty;
        Alcotest.test_case "multiplicity reduces SLAT share" `Quick
          test_multiplicity_reduces_slat;
      ] );
  ]

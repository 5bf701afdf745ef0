(* The whole-matrix exact cover of the test oracle
   ([Reference.exact_cover]) on small instances, and the incremental
   core of the exact backend ([Hitting_set.Solver]). *)

let problem defects =
  let net = Generators.c17 () in
  let pats = Pattern.exhaustive ~npis:5 in
  let expected = Logic_sim.responses net pats in
  let observed = Injection.observed_responses net pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  (net, pats, Explain.build_session (Session.create net pats) dlog)

let g net name = Option.get (Netlist.find net name)

let cover_is_valid m multiplet =
  (* Every observation is covered by some member. *)
  let nobs = Array.length (Explain.observations m) in
  let covered = Bitvec.create nobs in
  List.iter
    (fun f ->
      match Explain.find_candidate m f with
      | Some c -> Bitvec.union_into ~dst:covered (Explain.covers m c)
      | None -> Alcotest.fail "solution member not in pool")
    multiplet;
  Bitvec.popcount covered = nobs

let test_single_stuck_minimum_one () =
  let net = Generators.c17 () in
  let _, _, m = problem [ Defect.Stuck (g net "G16", true) ] in
  let r = Reference.exact_cover m in
  Alcotest.(check bool) "complete" true r.Reference.complete;
  Alcotest.(check (option int)) "minimum 1" (Some 1) r.Reference.minimum;
  List.iter
    (fun sol -> Alcotest.(check bool) "valid cover" true (cover_is_valid m sol))
    r.Reference.multiplets;
  (* The true fault is one of the minimum covers. *)
  Alcotest.(check bool) "truth among solutions" true
    (List.exists
       (fun sol ->
         List.exists (fun f -> f.Fault_list.site = g net "G16" && f.Fault_list.stuck) sol)
       r.Reference.multiplets)

let test_all_solutions_are_minimum_and_valid () =
  let net = Generators.c17 () in
  let _, _, m =
    problem [ Defect.Stuck (g net "G10", true); Defect.Stuck (g net "G19", false) ]
  in
  let r = Reference.exact_cover m in
  Alcotest.(check bool) "complete" true r.Reference.complete;
  match r.Reference.minimum with
  | None -> Alcotest.fail "cover must exist"
  | Some minimum ->
    Alcotest.(check bool) "nonempty" true (r.Reference.multiplets <> []);
    List.iter
      (fun sol ->
        Alcotest.(check int) "size = minimum" minimum (List.length sol);
        Alcotest.(check bool) "valid" true (cover_is_valid m sol))
      r.Reference.multiplets

let test_greedy_never_below_minimum () =
  (* Sanity: greedy cannot beat the exact minimum; usually it matches. *)
  let net = Generators.ripple_adder 8 in
  let pats = Campaign.test_set net in
  let expected = Logic_sim.responses net pats in
  let rng = Rng.create 111 in
  for _ = 1 to 5 do
    let defects = Injection.random_defects rng net Injection.default_mix 2 in
    let observed = Injection.observed_responses net pats defects in
    let dlog = Datalog.of_responses ~expected ~observed in
    if Datalog.num_failing dlog > 0 then begin
      let m = Explain.build_session (Session.create net pats) dlog in
      let greedy =
        Noassume.diagnose_matrix
          ~config:{ Noassume.default_config with validate = false }
          m
      in
      let r = Reference.exact_cover m in
      match (r.Reference.complete, r.Reference.minimum) with
      | true, Some minimum ->
        Alcotest.(check bool) "greedy >= minimum" true
          (List.length greedy.Noassume.multiplet >= minimum)
      | _ -> ()
    end
  done

let test_empty_datalog () =
  let net = Generators.c17 () in
  let pats = Pattern.exhaustive ~npis:5 in
  let resp = Logic_sim.responses net pats in
  let dlog = Datalog.of_responses ~expected:resp ~observed:resp in
  let m = Explain.build_session (Session.create net pats) dlog in
  let r = Reference.exact_cover m in
  Alcotest.(check (option int)) "minimum 0" (Some 0) r.Reference.minimum;
  Alcotest.(check bool) "empty multiplet" true (r.Reference.multiplets = [ [] ])

let test_budget_reported () =
  let net = Generators.ripple_adder 8 in
  let pats = Campaign.test_set net in
  let expected = Logic_sim.responses net pats in
  let rng = Rng.create 112 in
  let defects = Injection.random_defects rng net Injection.default_mix 3 in
  let observed = Injection.observed_responses net pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  let m = Explain.build_session (Session.create net pats) dlog in
  let r = Reference.exact_cover ~node_budget:3 m in
  Alcotest.(check bool) "budget exhaustion flagged" false r.Reference.complete

let test_max_solutions_respected () =
  let net = Generators.c17 () in
  let _, _, m = problem [ Defect.Stuck (g net "G11", true) ] in
  let r = Reference.exact_cover ~max_solutions:2 m in
  Alcotest.(check bool) "bounded" true (List.length r.Reference.multiplets <= 2)

(* [?upper_bound] restricts the search to strictly smaller covers: at
   the known minimum the result proves emptiness (the caller's cover is
   minimum), one above it the search still finds the optimum. *)
let test_upper_bound_cutoff () =
  let net = Generators.c17 () in
  let _, _, m =
    problem [ Defect.Stuck (g net "G10", true); Defect.Stuck (g net "G19", false) ]
  in
  let r = Reference.exact_cover m in
  match (r.Reference.complete, r.Reference.minimum) with
  | true, Some k ->
    let at = Reference.exact_cover ~upper_bound:k m in
    Alcotest.(check bool) "complete at bound" true at.Reference.complete;
    Alcotest.(check (option int)) "nothing below the minimum" None
      at.Reference.minimum;
    Alcotest.(check bool) "no multiplets" true (at.Reference.multiplets = []);
    let above = Reference.exact_cover ~upper_bound:(k + 1) m in
    Alcotest.(check (option int)) "minimum found below bound" (Some k)
      above.Reference.minimum
  | _ -> Alcotest.fail "reference solve must complete with a minimum"

(* --- Incremental Solver unit tests --------------------------------- *)

let solve ?upper_bound ?(node_budget = 100_000) t =
  Hitting_set.Solver.solve ?upper_bound ~node_budget t

let test_solver_rejects_empty_set () =
  let t = Hitting_set.Solver.create () in
  Alcotest.check_raises "empty set"
    (Invalid_argument "Hitting_set.Solver.add_set: empty set") (fun () ->
      Hitting_set.Solver.add_set t [||])

let test_solver_incremental_sets_and_floor () =
  let t = Hitting_set.Solver.create () in
  Hitting_set.Solver.add_set t [| 0; 1 |];
  let o = solve t in
  Alcotest.(check bool) "proved" true o.Hitting_set.Solver.proved;
  Alcotest.(check (option (list int))) "one element hits" (Some [ 0 ])
    o.Hitting_set.Solver.hitting;
  Alcotest.(check int) "floor raised to 1" 1 (Hitting_set.Solver.lower_bound t);
  (* A disjoint set forces a second element; the floor carries forward
     and then rises again. *)
  Hitting_set.Solver.add_set t [| 2; 3 |];
  let o = solve t in
  Alcotest.(check bool) "proved" true o.Hitting_set.Solver.proved;
  (match o.Hitting_set.Solver.hitting with
  | Some h -> Alcotest.(check int) "two elements" 2 (List.length h)
  | None -> Alcotest.fail "hitting set must exist");
  Alcotest.(check int) "floor raised to 2" 2 (Hitting_set.Solver.lower_bound t);
  (* An overlapping set changes nothing: {1,2} is hit by neither 0 nor
     3 necessarily, but a size-2 solution (1,2 one each) still exists. *)
  Hitting_set.Solver.add_set t [| 1; 2 |];
  let o = solve t in
  (match o.Hitting_set.Solver.hitting with
  | Some h -> Alcotest.(check int) "still two elements" 2 (List.length h)
  | None -> Alcotest.fail "hitting set must exist");
  Alcotest.(check int) "floor stays 2" 2 (Hitting_set.Solver.lower_bound t)

let test_solver_upper_bound_proves_emptiness () =
  let t = Hitting_set.Solver.create () in
  Hitting_set.Solver.add_set t [| 0 |];
  Hitting_set.Solver.add_set t [| 1 |];
  (* Minimum is 2; below an upper bound of 2 nothing exists. *)
  let o = solve ~upper_bound:2 t in
  Alcotest.(check bool) "proved" true o.Hitting_set.Solver.proved;
  Alcotest.(check (option (list int))) "nothing below the bound" None
    o.Hitting_set.Solver.hitting;
  Alcotest.(check int) "emptiness raises the floor to the bound" 2
    (Hitting_set.Solver.lower_bound t);
  let o = solve ~upper_bound:3 t in
  Alcotest.(check (option (list int))) "optimum below a loose bound" (Some [ 0; 1 ])
    o.Hitting_set.Solver.hitting

let test_solver_budget_exhaustion () =
  let t = Hitting_set.Solver.create () in
  Hitting_set.Solver.add_set t [| 0; 1 |];
  Hitting_set.Solver.add_set t [| 2; 3 |];
  let o = Hitting_set.Solver.solve ~node_budget:1 t in
  Alcotest.(check bool) "not proved" false o.Hitting_set.Solver.proved;
  Alcotest.(check int) "floor untouched on unproved solve" 0
    (Hitting_set.Solver.lower_bound t)

let suite =
  [
    ( "exact_cover",
      [
        Alcotest.test_case "single stuck minimum one" `Quick test_single_stuck_minimum_one;
        Alcotest.test_case "solutions minimum and valid" `Quick
          test_all_solutions_are_minimum_and_valid;
        Alcotest.test_case "greedy never below minimum" `Quick
          test_greedy_never_below_minimum;
        Alcotest.test_case "empty datalog" `Quick test_empty_datalog;
        Alcotest.test_case "budget reported" `Quick test_budget_reported;
        Alcotest.test_case "max solutions" `Quick test_max_solutions_respected;
        Alcotest.test_case "upper bound cutoff" `Quick test_upper_bound_cutoff;
        Alcotest.test_case "solver rejects empty set" `Quick
          test_solver_rejects_empty_set;
        Alcotest.test_case "solver incremental sets and floor" `Quick
          test_solver_incremental_sets_and_floor;
        Alcotest.test_case "solver upper bound proves emptiness" `Quick
          test_solver_upper_bound_proves_emptiness;
        Alcotest.test_case "solver budget exhaustion" `Quick
          test_solver_budget_exhaustion;
      ] );
  ]

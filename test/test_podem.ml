(* The ATPG contract: every Test pattern actually detects its fault
   (validated with the independent fault simulator), and Untestable is
   only returned for genuinely redundant faults. *)

let check_detects net fault pattern =
  let sim = Reference.scalar net in
  let block =
    {
      Pattern.base = 0;
      width = 1;
      pi_words = Array.map (fun b -> if b then 1 else 0) pattern;
    }
  in
  let good = Logic_sim.simulate_block net block in
  Reference.detects sim ~good ~width:1 ~site:fault.Fault_list.site
    ~stuck:fault.Fault_list.stuck
  <> 0

(* One run on fresh scratch. *)
let generate net fault = fst (Podem.run (Podem.create net) fault)

let exercise_all_faults name net =
  let collapsed = Fault_list.collapse net in
  let aborted = ref 0 in
  List.iter
    (fun fault ->
      match generate net fault with
      | Podem.Test pattern ->
        if not (check_detects net fault pattern) then
          Alcotest.failf "%s: pattern does not detect %s" name
            (Fault_list.to_string net fault)
      | Podem.Untestable -> ()
      | Podem.Aborted -> incr aborted)
    (Fault_list.representatives collapsed);
  !aborted

let test_c17_all_faults () =
  (* Every c17 fault is testable. *)
  let net = Generators.c17 () in
  let collapsed = Fault_list.collapse net in
  List.iter
    (fun fault ->
      match generate net fault with
      | Podem.Test pattern ->
        Alcotest.(check bool) "detects" true (check_detects net fault pattern)
      | Podem.Untestable | Podem.Aborted ->
        Alcotest.failf "c17 fault not covered: %s"
          (Fault_list.to_string net fault))
    (Fault_list.representatives collapsed)

let test_adder_all_faults () =
  let aborted = exercise_all_faults "add8" (Generators.ripple_adder 8) in
  Alcotest.(check int) "no aborts" 0 aborted

let test_parity_all_faults () =
  let aborted = exercise_all_faults "par8" (Generators.parity 8) in
  Alcotest.(check int) "no aborts" 0 aborted

let test_decoder_all_faults () =
  let aborted = exercise_all_faults "dec3" (Generators.decoder 3) in
  Alcotest.(check int) "no aborts" 0 aborted

let test_untestable_redundant () =
  (* z = OR(a, NOT a) is constantly 1: z sa1 is undetectable. *)
  let b = Builder.create () in
  let a = Builder.input b "a" in
  let na = Builder.not_ b ~name:"na" a in
  let z = Builder.or_ b ~name:"z" [ a; na ] in
  Builder.mark_output b z;
  let net = Builder.finalize b in
  (match generate net { Fault_list.site = z; stuck = true } with
  | Podem.Untestable -> ()
  | Podem.Test _ -> Alcotest.fail "z sa1 should be untestable"
  | Podem.Aborted -> Alcotest.fail "should prove redundancy, not abort");
  (* z sa0 is testable (any pattern). *)
  match generate net { Fault_list.site = z; stuck = false } with
  | Podem.Test p -> Alcotest.(check bool) "detects" true
      (check_detects net { Fault_list.site = z; stuck = false } p)
  | Podem.Untestable | Podem.Aborted -> Alcotest.fail "z sa0 must be testable"

let test_masked_internal_redundancy () =
  (* y = AND(a, b); z = OR(y, a).  With cone structure z = a (absorption):
     y sa0 is undetectable at z. *)
  let b = Builder.create () in
  let a = Builder.input b "a" in
  let bb = Builder.input b "b" in
  let y = Builder.and_ b ~name:"y" [ a; bb ] in
  let z = Builder.or_ b ~name:"z" [ y; a ] in
  Builder.mark_output b z;
  let net = Builder.finalize b in
  match generate net { Fault_list.site = y; stuck = false } with
  | Podem.Untestable -> ()
  | Podem.Test _ -> Alcotest.fail "absorbed fault should be untestable"
  | Podem.Aborted -> Alcotest.fail "small circuit must not abort"

let test_pi_faults () =
  let net = Generators.c17 () in
  let g1 = Option.get (Netlist.find net "G1") in
  (match generate net { Fault_list.site = g1; stuck = true } with
  | Podem.Test p ->
    Alcotest.(check bool) "detects" true
      (check_detects net { Fault_list.site = g1; stuck = true } p);
    (* Exciting G1 sa1 requires applying G1 = 0. *)
    Alcotest.(check bool) "g1 is 0" false p.(0)
  | Podem.Untestable | Podem.Aborted -> Alcotest.fail "PI fault must be testable")

let test_deterministic () =
  let net = Generators.ripple_adder 4 in
  let fault = { Fault_list.site = (Netlist.pos net).(2); stuck = true } in
  let a = generate net fault in
  let b = generate net fault in
  Alcotest.(check bool) "same result" true (a = b)

let qcheck_random_circuits =
  QCheck.Test.make ~name:"podem tests detect their faults (random circuits)" ~count:10
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let net = Generators.random_logic ~gates:50 ~pis:6 ~pos:4 ~seed in
      let collapsed = Fault_list.collapse net in
      List.for_all
        (fun fault ->
          match generate net fault with
          | Podem.Test pattern -> check_detects net fault pattern
          | Podem.Untestable | Podem.Aborted -> true)
        (Fault_list.representatives collapsed))

(* What a run found and how it searched: the result, the backtracks
   and whether it aborted.  Equal searches take equal backtracks, so a
   stale undo trail that changes the state a decision sees shows here
   even when the search still ends with the same vector. *)
let podem_search ~backtrack_limit ~fill_seed podem fault =
  let result, w = Podem.run ~backtrack_limit ~fill_seed podem fault in
  (result, w.Podem.backtracks, w.Podem.aborted = 1)

let oracle_search ~backtrack_limit ~fill_seed net fault =
  let result, backtracks = Podem_oracle.generate ~backtrack_limit ~fill_seed net fault in
  (result, backtracks, result = Podem.Aborted)

(* Differential oracle: the incremental dual-rail engine must search
   exactly as the reference implication (two full ternary sweeps per
   decision, whole-netlist scans, flips by re-implication) does — same
   variant, same vector, same backtracks — for every collapsed fault,
   one reused engine per circuit (a trail left by one fault must not
   leak into the next), and backtrack limits small enough to abort. *)
let agrees_with_oracle ~backtrack_limit ~fill_seed net =
  let podem = Podem.create net in
  List.for_all
    (fun fault ->
      podem_search ~backtrack_limit ~fill_seed podem fault
      = oracle_search ~backtrack_limit ~fill_seed net fault)
    (Fault_list.representatives (Fault_list.collapse net))

let qcheck_matches_oracle =
  QCheck.Test.make ~name:"podem matches the ternary-sweep oracle (random circuits)"
    ~count:12
    QCheck.(
      quad (int_range 50 300) (int_range 1 10_000) (oneofl [ 4; 16; 128 ])
        (int_range 0 1_000_000))
    (fun (gates, seed, backtrack_limit, fill_seed) ->
      let net =
        Generators.random_logic ~gates ~pis:(4 + (seed mod 13)) ~pos:(2 + (seed mod 7)) ~seed
      in
      agrees_with_oracle ~backtrack_limit ~fill_seed net)

(* One engine, reused across every collapsed fault of [net] and across
   backtrack limits 4, 16 and 128, must search as the oracle does; the
   limit-4 outcomes are returned as (tests, untestable, aborted). *)
let check_oracle_searches net =
  let podem = Podem.create net in
  let tests = ref 0 and untestable = ref 0 and aborted = ref 0 in
  let faults = Fault_list.representatives (Fault_list.collapse net) in
  List.iter
    (fun backtrack_limit ->
      List.iter
        (fun fault ->
          let ((r, _, _) as got) = podem_search ~backtrack_limit ~fill_seed:7 podem fault in
          if got <> oracle_search ~backtrack_limit ~fill_seed:7 net fault then
            Alcotest.failf "oracle disagrees on %s at limit %d"
              (Fault_list.to_string net fault)
              backtrack_limit;
          if backtrack_limit = 4 then
            match r with
            | Podem.Test _ -> incr tests
            | Podem.Untestable -> incr untestable
            | Podem.Aborted -> incr aborted)
        faults)
    [ 4; 16; 128 ];
  (!tests, !untestable, !aborted)

(* The oracle comparison above is only as strong as the outcomes it
   sees: on the first circuit a limit of 4 yields tests, proofs and
   aborts.  Each run must also start from its own fault's state alone:
   on the second, a run that swept the previous fault's region instead
   of its own searches differently at limit 16, so a stale rail carried
   from one fault into the next shows there. *)
let test_oracle_all_outcomes () =
  let tests, untestable, aborted =
    check_oracle_searches (Generators.random_logic ~gates:300 ~pis:12 ~pos:6 ~seed:17)
  in
  Alcotest.(check bool) "some tests" true (tests > 0);
  Alcotest.(check bool) "some untestable" true (untestable > 0);
  Alcotest.(check bool) "some aborted" true (aborted > 0);
  ignore
    (check_oracle_searches (Generators.random_logic ~gates:240 ~pis:7 ~pos:3 ~seed:120)
      : int * int * int)

let suite =
  [
    ( "podem",
      [
        Alcotest.test_case "c17 full coverage" `Quick test_c17_all_faults;
        Alcotest.test_case "add8 all faults" `Quick test_adder_all_faults;
        Alcotest.test_case "par8 all faults" `Quick test_parity_all_faults;
        Alcotest.test_case "dec3 all faults" `Quick test_decoder_all_faults;
        Alcotest.test_case "untestable redundancy" `Quick test_untestable_redundant;
        Alcotest.test_case "absorbed fault untestable" `Quick test_masked_internal_redundancy;
        Alcotest.test_case "PI faults" `Quick test_pi_faults;
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        QCheck_alcotest.to_alcotest qcheck_random_circuits;
        Alcotest.test_case "oracle agreement covers every outcome" `Quick
          test_oracle_all_outcomes;
        QCheck_alcotest.to_alcotest qcheck_matches_oracle;
      ] );
  ]

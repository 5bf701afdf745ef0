let mk entries = Reference.datalog ~npatterns:10 ~npos:4 entries

let test_basics () =
  let d = mk [ (3, [ 1; 0 ]); (7, [ 2 ]) ] in
  Alcotest.(check int) "npatterns" 10 (Datalog.npatterns d);
  Alcotest.(check int) "npos" 4 (Datalog.npos d);
  Alcotest.(check int) "num_failing" 2 (Datalog.num_failing d);
  Alcotest.(check (list int)) "failing ascending" [ 3; 7 ] (Datalog.failing_patterns d);
  Alcotest.(check (list int)) "pos sorted" [ 0; 1 ] (Datalog.failing_pos d 3);
  Alcotest.(check (list int)) "pos of passing empty" [] (Datalog.failing_pos d 5)

let test_observations_order () =
  let d = mk [ (7, [ 2 ]); (3, [ 1; 0 ]) ] in
  let obs = Datalog.observations d in
  Alcotest.(check int) "count" 3 (Array.length obs);
  Alcotest.(check bool) "ordered" true
    (obs.(0) = { Datalog.pattern = 3; po = 0 }
    && obs.(1) = { Datalog.pattern = 3; po = 1 }
    && obs.(2) = { Datalog.pattern = 7; po = 2 })

let rejects name text reason =
  Alcotest.check_raises name
    (Invalid_argument ("Datalog.of_text: " ^ reason))
    (fun () -> ignore (Datalog.of_text ~npatterns:10 ~npos:4 text))

(* Entry checks name the line that breaks them, blank lines counted. *)
let test_validation () =
  rejects "range" "fail 2 : 0\nfail 10 : 0\n" "pattern index out of range on line 2";
  rejects "dup" "fail 1 : 0\n\nfail 1 : 1\n" "duplicate pattern entry on line 3";
  rejects "empty" "fail 1 :\n" "empty failing-output list on line 1";
  rejects "po range" "fail 1 : 0\nfail 2 : 4\n" "PO position out of range on line 2"

let test_of_responses () =
  let net = Generators.c17 () in
  let pats = Pattern.exhaustive ~npis:5 in
  let expected = Logic_sim.responses net pats in
  let g16 = Option.get (Netlist.find net "G16") in
  let observed = Logic_sim.responses_overlay net pats [ Logic_sim.force g16 true ] in
  let d = Datalog.of_responses ~expected ~observed in
  Alcotest.(check int) "npatterns" 32 (Datalog.npatterns d);
  Alcotest.(check bool) "some failures" true (Datalog.num_failing d > 0);
  (* Cross-check every entry against the raw responses. *)
  List.iter
    (fun p ->
      List.iter
        (fun oi ->
          Alcotest.(check bool) "mismatch real" true
            (Bitvec.get expected.(oi) p <> Bitvec.get observed.(oi) p))
        (Datalog.failing_pos d p))
    (Datalog.failing_patterns d)

let test_identical_responses_no_failures () =
  let net = Generators.c17 () in
  let pats = Pattern.exhaustive ~npis:5 in
  let r = Logic_sim.responses net pats in
  let d = Datalog.of_responses ~expected:r ~observed:r in
  Alcotest.(check int) "no failing" 0 (Datalog.num_failing d)

let test_text_roundtrip () =
  let d = mk [ (3, [ 1; 0 ]); (7, [ 2 ]) ] in
  let text = Datalog.to_text d in
  let d2 = Datalog.of_text ~npatterns:10 ~npos:4 text in
  Alcotest.(check (list int)) "failing" (Datalog.failing_patterns d)
    (Datalog.failing_patterns d2);
  List.iter
    (fun p ->
      Alcotest.(check (list int)) "pos" (Datalog.failing_pos d p) (Datalog.failing_pos d2 p))
    (Datalog.failing_patterns d)

let test_text_format () =
  let d = mk [ (3, [ 0; 1 ]) ] in
  Alcotest.(check string) "format" "fail 3 : 0 1\n" (Datalog.to_text d)

(* A number is plain decimal digits: hexadecimal, binary, underscored,
   signed and overflowing forms are refused, not read as another
   pattern. *)
let test_of_text_errors () =
  rejects "bad number" "fail x : 0\n" "bad number on line 1";
  rejects "no colon" "fail 3 0\n" "expected ':' on line 1";
  List.iter
    (fun (name, line) -> rejects name ("fail 1 : 0\n" ^ line) "bad number on line 2")
    [
      ("hex pattern", "fail 0x10 : 1");
      ("binary po", "fail 2 : 0b11");
      ("underscore", "fail 1_0 : 0");
      ("plus sign", "fail +3 : 0");
      ("minus sign", "fail -3 : 0");
      ("overflow", "fail 99999999999999999999 : 0");
    ]

let suite =
  [
    ( "datalog",
      [
        Alcotest.test_case "basics" `Quick test_basics;
        Alcotest.test_case "observation order" `Quick test_observations_order;
        Alcotest.test_case "validation" `Quick test_validation;
        Alcotest.test_case "of_responses" `Quick test_of_responses;
        Alcotest.test_case "identical responses" `Quick test_identical_responses_no_failures;
        Alcotest.test_case "text roundtrip" `Quick test_text_roundtrip;
        Alcotest.test_case "text format" `Quick test_text_format;
        Alcotest.test_case "of_text errors" `Quick test_of_text_errors;
      ] );
  ]

let c17_text =
  "INPUT(G1)\nINPUT(G2)\nINPUT(G3)\nINPUT(G6)\nINPUT(G7)\n\
   OUTPUT(G22)\nOUTPUT(G23)\n\
   G10 = NAND(G1, G3)\nG11 = NAND(G3, G6)\nG16 = NAND(G2, G11)\n\
   G19 = NAND(G11, G7)\nG22 = NAND(G10, G16)\nG23 = NAND(G16, G19)\n"

let test_parse_c17 () =
  let net = Bench_io.parse_string c17_text in
  Alcotest.(check int) "pis" 5 (Netlist.num_pis net);
  Alcotest.(check int) "pos" 2 (Netlist.num_pos net);
  Alcotest.(check int) "gates" 6 (Netlist.num_gates net);
  Alcotest.(check bool) "G16 is NAND" true
    (Netlist.kind net (Option.get (Netlist.find net "G16")) = Gate.Nand)

let test_roundtrip () =
  let net = Bench_io.parse_string c17_text in
  let net2 = Bench_io.parse_string (Bench_io.to_string net) in
  Alcotest.(check int) "nets" (Netlist.num_nets net) (Netlist.num_nets net2);
  Alcotest.(check int) "pos" (Netlist.num_pos net) (Netlist.num_pos net2);
  (* Same behaviour on random patterns. *)
  let rng = Rng.create 3 in
  let pats = Pattern.random rng ~npis:5 ~count:32 in
  let r1 = Logic_sim.responses net pats in
  let r2 = Logic_sim.responses net2 pats in
  Alcotest.(check bool) "same responses" true (Array.for_all2 Bitvec.equal r1 r2)

let test_roundtrip_suite () =
  (* Every generator circuit must survive print -> parse with identical
     behaviour. *)
  List.iter
    (fun (name, net) ->
      if Netlist.num_gates net < 400 then begin
        let net2 = Bench_io.parse_string (Bench_io.to_string net) in
        let rng = Rng.create 5 in
        let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:16 in
        let r1 = Logic_sim.responses net pats in
        let r2 = Logic_sim.responses net2 pats in
        Alcotest.(check bool) (name ^ " same responses") true
          (Array.for_all2 Bitvec.equal r1 r2)
      end)
    (Generators.suite ())

let test_comments_and_blank_lines () =
  let net =
    Bench_io.parse_string
      "# a comment\n\n  INPUT(a)  \n# another\nOUTPUT(z)\nz = NOT(a) # trailing\n"
  in
  Alcotest.(check int) "gates" 1 (Netlist.num_gates net)

let test_forward_reference () =
  (* An OUTPUT declared before its driver, and a gate referencing a net
     defined later. *)
  let net = Bench_io.parse_string "INPUT(a)\nOUTPUT(z)\nz = BUF(y)\ny = NOT(a)\n" in
  Alcotest.(check int) "gates" 2 (Netlist.num_gates net)

let test_const_cells () =
  let net = Bench_io.parse_string "OUTPUT(z)\nt = VDD()\nz = BUF(t)\n" in
  let values = Scalar_logic.simulate_pattern net [||] in
  Alcotest.(check bool) "vdd" true values.(Option.get (Netlist.find net "z"))

let check_parse_error text expected_line =
  match Bench_io.parse_string text with
  | exception Bench_io.Parse_error (line, _) ->
    Alcotest.(check int) "error line" expected_line line
  | _ -> Alcotest.fail "expected Parse_error"

let test_errors () =
  check_parse_error "z = FROB(a)\n" 1;
  check_parse_error "INPUT(a)\nINPUT(a)\n" 2;
  check_parse_error "INPUT(a)\nz = AND(a, ghost)\n" 2;
  check_parse_error "INPUT(a)\nz = AND(a)\n" 2;
  check_parse_error "INPUT(a b)\n" 1;
  check_parse_error "z = \n" 1;
  (* Cycle is caught by Netlist.make and re-raised as a Parse_error at
     line 0. *)
  check_parse_error "OUTPUT(z)\nz = BUF(z)\n" 0

let test_write_read_file () =
  let net = Generators.c17 () in
  let text = Bench_io.to_string net in
  let path = Filename.temp_file "mddtest" ".bench" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let net2 = Result.get_ok (Design.load_circuit (Design.File path)) in
  Sys.remove path;
  Alcotest.(check int) "nets" (Netlist.num_nets net) (Netlist.num_nets net2);
  Alcotest.(check string) "source" (Bench_io.source_key text) (Netlist.source net2)

let suite =
  [
    ( "bench_io",
      [
        Alcotest.test_case "parse c17" `Quick test_parse_c17;
        Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "roundtrip suite" `Quick test_roundtrip_suite;
        Alcotest.test_case "comments/blank lines" `Quick test_comments_and_blank_lines;
        Alcotest.test_case "forward reference" `Quick test_forward_reference;
        Alcotest.test_case "const cells" `Quick test_const_cells;
        Alcotest.test_case "errors" `Quick test_errors;
        Alcotest.test_case "write/read file" `Quick test_write_read_file;
      ] );
  ]

let sample =
  "// a comment\n\
   module top (a, b, z, y);\n\
  \  input a, b;\n\
  \  output z, y;\n\
  \  wire n1; /* block\n\
   comment */\n\
  \  nand g0 (n1, a, b);\n\
  \  not (z, n1);\n\
  \  assign c0 = 1'b1;\n\
  \  and g2 (y, c0, a);\n\
   endmodule\n"

let test_parse_sample () =
  let net = Verilog_io.parse_string sample in
  Alcotest.(check int) "pis" 2 (Netlist.num_pis net);
  Alcotest.(check int) "pos" 2 (Netlist.num_pos net);
  let z = Option.get (Netlist.find net "z") in
  Alcotest.(check bool) "z is not-gate" true (Netlist.kind net z = Gate.Not);
  let c0 = Option.get (Netlist.find net "c0") in
  Alcotest.(check bool) "const" true (Netlist.kind net c0 = Gate.Const true);
  (* Behaviour: z = nand(a,b) inverted = and(a,b); y = a. *)
  let values = Scalar_logic.simulate_pattern net [| true; true |] in
  Alcotest.(check bool) "z" true values.(z);
  let values = Scalar_logic.simulate_pattern net [| true; false |] in
  Alcotest.(check bool) "z2" false values.(z)

let same_behaviour name a b =
  let rng = Rng.create 7 in
  let pats = Pattern.random rng ~npis:(Netlist.num_pis a) ~count:48 in
  let ra = Logic_sim.responses a pats in
  let rb = Logic_sim.responses b pats in
  Alcotest.(check bool) (name ^ " same responses") true (Array.for_all2 Bitvec.equal ra rb)

let test_roundtrip_suite () =
  List.iter
    (fun (name, net) ->
      if Netlist.num_gates net < 400 then begin
        let text = Verilog_io.to_string net in
        let net2 = Verilog_io.parse_string text in
        Alcotest.(check int) (name ^ " pis") (Netlist.num_pis net) (Netlist.num_pis net2);
        Alcotest.(check int) (name ^ " pos") (Netlist.num_pos net) (Netlist.num_pos net2);
        same_behaviour name net net2
      end)
    (Generators.suite ())

let test_bench_to_verilog () =
  (* Cross-format: parse .bench, emit Verilog, reparse, same behaviour. *)
  let net = Generators.c17 () in
  let net2 = Verilog_io.parse_string (Verilog_io.to_string net) in
  same_behaviour "c17" net net2

let test_escaped_identifiers () =
  (* Builder names with brackets force escaping. *)
  let b = Builder.create () in
  let a = Builder.input b "a[0]" in
  let z = Builder.not_ b ~name:"z.out" a in
  Builder.mark_output b z;
  let net = Builder.finalize b in
  let text = Verilog_io.to_string net in
  Alcotest.(check bool) "escape used" true
    (String.length text > 0
    && (let found = ref false in
        String.iteri (fun _ c -> if c = '\\' then found := true) text;
        !found));
  let net2 = Verilog_io.parse_string text in
  Alcotest.(check (option int)) "name preserved" (Some 0) (Netlist.find net2 "a[0]")

let check_error text expected_fragment =
  match Verilog_io.parse_string text with
  | exception Verilog_io.Parse_error (_, msg) ->
    let contains needle hay =
      let n = String.length needle and h = String.length hay in
      let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) (Printf.sprintf "error mentions %S" expected_fragment) true
      (contains expected_fragment msg)
  | _ -> Alcotest.fail "expected Parse_error"

let test_errors () =
  check_error "module m (a, z); input a; output z; always foo (z, a); endmodule"
    "unsupported construct";
  check_error "module m (a); input a; always @(posedge a) x <= 1; endmodule"
    "unexpected character";
  check_error "module m (a, z); input a; output z; endmodule" "never driven";
  check_error
    "module m (a, z); input a; output z; not (z, a); not (z, a); endmodule"
    "driven twice";
  (* Nets named only in a port list are implicitly declared (standard
     Verilog behaviour), so an undriven typo surfaces as "never driven". *)
  check_error "module m (a, z); input a; output z; not (z, ghost); endmodule" "never driven";
  check_error "module m (a, z); input a; output z; assign z = 1'b2; endmodule" "literal";
  check_error "module m (a, z); input a; output z; not (z); endmodule" "output and inputs"

let test_keyword_rejected_as_po_pi_overlap () =
  (* A net that is both PI and PO cannot be emitted. *)
  let b = Builder.create () in
  let a = Builder.input b "a" in
  Builder.mark_output b a;
  let net = Builder.finalize b in
  Alcotest.check_raises "pi=po"
    (Invalid_argument "Verilog_io.to_string: a primary input is also an output")
    (fun () -> ignore (Verilog_io.to_string net))

let test_write_read_file () =
  let net = Generators.ripple_adder 4 in
  let text = Verilog_io.to_string net in
  let path = Filename.temp_file "mddtest" ".v" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let net2 = Result.get_ok (Design.load_circuit (Design.File path)) in
  Sys.remove path;
  same_behaviour "file roundtrip" net net2;
  Alcotest.(check string) "source" (Verilog_io.source_key text) (Netlist.source net2)

let suite =
  [
    ( "verilog_io",
      [
        Alcotest.test_case "parse sample" `Quick test_parse_sample;
        Alcotest.test_case "roundtrip suite" `Quick test_roundtrip_suite;
        Alcotest.test_case "bench to verilog" `Quick test_bench_to_verilog;
        Alcotest.test_case "escaped identifiers" `Quick test_escaped_identifiers;
        Alcotest.test_case "errors" `Quick test_errors;
        Alcotest.test_case "pi=po rejected" `Quick test_keyword_rejected_as_po_pi_overlap;
        Alcotest.test_case "file roundtrip" `Quick test_write_read_file;
      ] );
  ]

let eval1 net inputs =
  let values = Scalar_logic.simulate_pattern net inputs in
  fun n -> values.(n)

let test_combinators_truth () =
  let b = Builder.create () in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  let n_and = Builder.and_ b [ x; y ] in
  let n_or = Builder.or_ b [ x; y ] in
  let n_nand = Builder.gate b "n_nand" Gate.Nand [ x; y ] in
  let n_nor = Builder.nor_ b [ x; y ] in
  let n_xor = Builder.xor_ b [ x; y ] in
  let n_xnor = Builder.xnor_ b [ x; y ] in
  let n_not = Builder.not_ b x in
  let n_buf = Builder.buf_ b x in
  List.iter (Builder.mark_output b)
    [ n_and; n_or; n_nand; n_nor; n_xor; n_xnor; n_not; n_buf ];
  let net = Builder.finalize b in
  List.iter
    (fun (a, c) ->
      let v = eval1 net [| a; c |] in
      Alcotest.(check bool) "and" (a && c) (v n_and);
      Alcotest.(check bool) "or" (a || c) (v n_or);
      Alcotest.(check bool) "nand" (not (a && c)) (v n_nand);
      Alcotest.(check bool) "nor" (not (a || c)) (v n_nor);
      Alcotest.(check bool) "xor" (a <> c) (v n_xor);
      Alcotest.(check bool) "xnor" (a = c) (v n_xnor);
      Alcotest.(check bool) "not" (not a) (v n_not);
      Alcotest.(check bool) "buf" a (v n_buf))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_mux_truth () =
  let b = Builder.create () in
  let s = Builder.input b "s" in
  let a0 = Builder.input b "a0" in
  let a1 = Builder.input b "a1" in
  let m = Builder.mux_ b ~sel:s a0 a1 in
  Builder.mark_output b m;
  let net = Builder.finalize b in
  for code = 0 to 7 do
    let s_v = code land 1 = 1 in
    let a0_v = code land 2 <> 0 in
    let a1_v = code land 4 <> 0 in
    let v = eval1 net [| s_v; a0_v; a1_v |] in
    Alcotest.(check bool) "mux" (if s_v then a1_v else a0_v) (v m)
  done

let test_duplicate_name_rejected () =
  let b = Builder.create () in
  let x = Builder.input b "x" in
  Alcotest.check_raises "dup" (Invalid_argument "Builder: duplicate net name \"x\"")
    (fun () -> ignore (Builder.gate b "x" Gate.Buf [ x ]))

let test_undefined_fanin_rejected () =
  let b = Builder.create () in
  Alcotest.check_raises "undef"
    (Invalid_argument "Builder: gate \"z\" references undefined net") (fun () ->
      ignore (Builder.gate b "z" Gate.Buf [ 5 ]))

let test_arity_rejected () =
  let b = Builder.create () in
  let x = Builder.input b "x" in
  Alcotest.check_raises "arity" (Invalid_argument "Builder: AND gate \"z\" with 1 fanins")
    (fun () -> ignore (Builder.gate b "z" Gate.And [ x ]))

let test_fresh_names () =
  let b = Builder.create () in
  let _ = Builder.input b "n" in
  let f1 = Builder.fresh b "n" in
  Alcotest.(check bool) "avoids collision" true (f1 <> "n");
  let m = Builder.fresh b "m" in
  Alcotest.(check string) "unused prefix kept" "m" m

let test_double_mark_output () =
  let b = Builder.create () in
  let x = Builder.input b "x" in
  Builder.mark_output b x;
  Alcotest.check_raises "double" (Invalid_argument "Builder.mark_output: already an output")
    (fun () -> Builder.mark_output b x)

let test_output_order_preserved () =
  let b = Builder.create () in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  Builder.mark_output b y;
  Builder.mark_output b x;
  let net = Builder.finalize b in
  Alcotest.(check (array int)) "order" [| y; x |] (Netlist.pos net)

let suite =
  [
    ( "builder",
      [
        Alcotest.test_case "combinator truth tables" `Quick test_combinators_truth;
        Alcotest.test_case "mux truth table" `Quick test_mux_truth;
        Alcotest.test_case "duplicate name rejected" `Quick test_duplicate_name_rejected;
        Alcotest.test_case "undefined fanin rejected" `Quick test_undefined_fanin_rejected;
        Alcotest.test_case "arity rejected" `Quick test_arity_rejected;
        Alcotest.test_case "fresh names" `Quick test_fresh_names;
        Alcotest.test_case "double mark output" `Quick test_double_mark_output;
        Alcotest.test_case "output order preserved" `Quick test_output_order_preserved;
      ] );
  ]

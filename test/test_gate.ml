let binary_kinds = [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor ]

let test_arity () =
  Alcotest.(check bool) "input 0" true (Gate.arity_ok Gate.Input 0);
  Alcotest.(check bool) "input 1" false (Gate.arity_ok Gate.Input 1);
  Alcotest.(check bool) "const 0" true (Gate.arity_ok (Gate.Const true) 0);
  Alcotest.(check bool) "not 1" true (Gate.arity_ok Gate.Not 1);
  Alcotest.(check bool) "not 2" false (Gate.arity_ok Gate.Not 2);
  List.iter
    (fun k ->
      Alcotest.(check bool) "nary 1" false (Gate.arity_ok k 1);
      Alcotest.(check bool) "nary 2" true (Gate.arity_ok k 2);
      Alcotest.(check bool) "nary 5" true (Gate.arity_ok k 5))
    binary_kinds

let test_name_roundtrip () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Gate.name k)
        true
        (match Gate.of_name (Gate.name k) with Some k' -> k = k' | None -> false))
    ([ Gate.Input; Gate.Const true; Gate.Const false; Gate.Buf; Gate.Not ] @ binary_kinds);
  (* Aliases and case-insensitivity. *)
  Alcotest.(check bool) "buff" true (Gate.of_name "BUFF" = Some Gate.Buf);
  Alcotest.(check bool) "inv" true (Gate.of_name "inv" = Some Gate.Not);
  Alcotest.(check bool) "nand lowercase" true (Gate.of_name "nand" = Some Gate.Nand);
  Alcotest.(check bool) "unknown" true (Gate.of_name "FOO" = None)

(* [Gate.eval] on the operand words [args], read through a CSR slice
   that starts past the front of a shuffled fanin array, so the kernel's
   indexing is exercised as the simulators use it: operand [i] sits at
   [values.(fanin.(lo + i))], with unrelated words around it. *)
let eval_slice kind args =
  let n = Array.length args in
  let lo = 3 in
  let values = Array.make (n + 5) 0x5555 in
  let fanin = Array.make (lo + n + 2) 0 in
  Array.iteri
    (fun i w ->
      let slot = n + 4 - i in
      values.(slot) <- w;
      fanin.(lo + i) <- slot)
    args;
  Gate.eval kind values fanin lo (lo + n)

let test_eval_bool_truth_tables () =
  let check kind args expected =
    let label =
      Printf.sprintf "%s %s" (Gate.name kind)
        (String.concat "" (List.map (fun b -> if b then "1" else "0") args))
    in
    Alcotest.(check bool) label expected (Scalar_logic.eval_bool kind args);
    let words = Array.of_list (List.map (fun b -> if b then 1 else 0) args) in
    Alcotest.(check bool)
      ("Gate.eval " ^ label)
      expected
      (eval_slice kind words land 1 = 1)
  in
  check (Gate.Const true) [] true;
  check (Gate.Const false) [] false;
  check Gate.Buf [ true ] true;
  check Gate.Not [ true ] false;
  (* Exhaustive over 2 inputs for all binary kinds. *)
  let cases = [ (false, false); (false, true); (true, false); (true, true) ] in
  List.iter
    (fun (a, b) ->
      check Gate.And [ a; b ] (a && b);
      check Gate.Nand [ a; b ] (not (a && b));
      check Gate.Or [ a; b ] (a || b);
      check Gate.Nor [ a; b ] (not (a || b));
      check Gate.Xor [ a; b ] (a <> b);
      check Gate.Xnor [ a; b ] (a = b))
    cases;
  (* 3-input checks. *)
  check Gate.And [ true; true; false ] false;
  check Gate.Xor [ true; true; true ] true;
  check Gate.Nor [ false; false; false ] true

let test_eval_bool_arity_errors () =
  Alcotest.check_raises "input"
    (Invalid_argument "Scalar_logic.eval: INPUT with wrong arity") (fun () ->
      ignore (Scalar_logic.eval_bool Gate.Input []));
  Alcotest.check_raises "and/1"
    (Invalid_argument "Scalar_logic.eval: AND with wrong arity") (fun () ->
      ignore (Scalar_logic.eval_bool Gate.And [ true ]));
  Alcotest.check_raises "Gate.eval input" (Invalid_argument "Gate.eval: Input") (fun () ->
      ignore (eval_slice Gate.Input [||]))

(* Every kind a gate can have, each with its legal arities up to 5:
   0 for constants, 1 for BUF/NOT, 2-5 for the n-ary kinds. *)
let evaluable =
  List.concat_map
    (fun kind ->
      List.filter_map
        (fun n -> if Gate.arity_ok kind n then Some (kind, n) else None)
        [ 0; 1; 2; 3; 4; 5 ])
    ([ Gate.Const false; Gate.Const true; Gate.Buf; Gate.Not ] @ binary_kinds)

(* eval_v3 on binary values must agree with eval_bool. *)
let qcheck_v3_agrees_with_bool =
  let gen = QCheck.Gen.(pair (oneofl evaluable) (list_repeat 5 bool)) in
  QCheck.Test.make ~name:"eval_v3 agrees with eval_bool on binary inputs" ~count:500
    (QCheck.make gen) (fun ((kind, n), bools) ->
      let args = List.filteri (fun i _ -> i < n) bools in
      let v3 = Scalar_logic.eval_v3 kind (List.map Scalar_logic.v3_of_bool args) in
      Scalar_logic.bool_of_v3 v3 = Some (Scalar_logic.eval_bool kind args))

(* The library's one gate evaluator, and the word oracle beside it, must
   agree with eval_bool on every bit: every kind at every legal arity up
   to 5, on the same random operand words. *)
let qcheck_word_agrees_with_bool =
  let gen = QCheck.Gen.(array_repeat 5 (int_bound max_int)) in
  QCheck.Test.make ~name:"eval_word agrees with eval_bool per bit" ~count:300
    (QCheck.make gen) (fun words ->
      List.for_all
        (fun (kind, n) ->
          let args = Array.sub words 0 n in
          let kernel = eval_slice kind args in
          let oracle = Scalar_logic.eval_word kind args in
          let ok = ref true in
          for bit = 0 to Bitvec.word_bits - 1 do
            let bools = Array.to_list (Array.map (fun w -> w lsr bit land 1 = 1) args) in
            let expect = Scalar_logic.eval_bool kind bools in
            let bit_of w = w lsr bit land 1 = 1 in
            if bit_of kernel <> expect || bit_of oracle <> expect then ok := false
          done;
          !ok)
        evaluable)

(* An X input can never change a determined controlled output. *)
let qcheck_v3_monotone =
  let kind_gen = QCheck.Gen.oneofl binary_kinds in
  let gen = QCheck.Gen.(pair kind_gen (list_size (int_range 2 5) bool)) in
  QCheck.Test.make ~name:"refining X never flips a binary output" ~count:500
    (QCheck.make gen) (fun (kind, args) ->
      (* Replace each position with X; the output must be the binary
         result or X, never the complement. *)
      let open Scalar_logic in
      let full = eval_v3 kind (List.map v3_of_bool args) in
      List.for_all
        (fun i ->
          let degraded = List.mapi (fun j b -> if i = j then X else v3_of_bool b) args in
          let out = eval_v3 kind degraded in
          v3_equal out full || v3_equal out X)
        (List.init (List.length args) Fun.id))

let test_controlling () =
  Alcotest.(check (option bool)) "and" (Some false) (Gate.controlling Gate.And);
  Alcotest.(check (option bool)) "nand" (Some false) (Gate.controlling Gate.Nand);
  Alcotest.(check (option bool)) "or" (Some true) (Gate.controlling Gate.Or);
  Alcotest.(check (option bool)) "nor" (Some true) (Gate.controlling Gate.Nor);
  Alcotest.(check (option bool)) "xor" None (Gate.controlling Gate.Xor);
  Alcotest.(check (option bool)) "buf" None (Gate.controlling Gate.Buf)

let test_inversion () =
  List.iter
    (fun (k, expect) ->
      Alcotest.(check bool) (Gate.name k) expect (Gate.inversion k))
    [
      (Gate.Not, true); (Gate.Nand, true); (Gate.Nor, true); (Gate.Xnor, true);
      (Gate.Buf, false); (Gate.And, false); (Gate.Or, false); (Gate.Xor, false);
    ]

let suite =
  [
    ( "gate",
      [
        Alcotest.test_case "arity" `Quick test_arity;
        Alcotest.test_case "name roundtrip" `Quick test_name_roundtrip;
        Alcotest.test_case "bool truth tables" `Quick test_eval_bool_truth_tables;
        Alcotest.test_case "arity errors" `Quick test_eval_bool_arity_errors;
        Alcotest.test_case "controlling" `Quick test_controlling;
        Alcotest.test_case "inversion" `Quick test_inversion;
        QCheck_alcotest.to_alcotest qcheck_v3_agrees_with_bool;
        QCheck_alcotest.to_alcotest qcheck_word_agrees_with_bool;
        QCheck_alcotest.to_alcotest qcheck_v3_monotone;
      ] );
  ]

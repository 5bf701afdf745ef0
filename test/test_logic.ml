open Logic
open Scalar_logic

let v3 = Alcotest.testable pp_v3 v3_equal

let all_v3 = [ V0; V1; X ]

let test_not_table () =
  Alcotest.check v3 "not 0" V1 (v3_not V0);
  Alcotest.check v3 "not 1" V0 (v3_not V1);
  Alcotest.check v3 "not X" X (v3_not X)

let test_and_table () =
  (* Exhaustive 3x3 truth table. *)
  let expect a b =
    match (a, b) with
    | V0, _ | _, V0 -> V0
    | V1, V1 -> V1
    | _ -> X
  in
  List.iter
    (fun a ->
      List.iter
        (fun b -> Alcotest.check v3 "and" (expect a b) (v3_and a b))
        all_v3)
    all_v3

let test_or_table () =
  let expect a b =
    match (a, b) with
    | V1, _ | _, V1 -> V1
    | V0, V0 -> V0
    | _ -> X
  in
  List.iter
    (fun a ->
      List.iter (fun b -> Alcotest.check v3 "or" (expect a b) (v3_or a b)) all_v3)
    all_v3

let test_xor_table () =
  let expect a b =
    match (a, b) with
    | X, _ | _, X -> X
    | V0, V0 | V1, V1 -> V0
    | _ -> V1
  in
  List.iter
    (fun a ->
      List.iter (fun b -> Alcotest.check v3 "xor" (expect a b) (v3_xor a b)) all_v3)
    all_v3

let test_demorgan () =
  (* not (a and b) = (not a) or (not b) holds in 3-valued logic. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.check v3 "de morgan" (v3_not (v3_and a b)) (v3_or (v3_not a) (v3_not b)))
        all_v3)
    all_v3

let test_bool_roundtrip () =
  Alcotest.check v3 "of_bool true" V1 (v3_of_bool true);
  Alcotest.check v3 "of_bool false" V0 (v3_of_bool false);
  Alcotest.(check (option bool)) "to_bool 1" (Some true) (bool_of_v3 V1);
  Alcotest.(check (option bool)) "to_bool 0" (Some false) (bool_of_v3 V0);
  Alcotest.(check (option bool)) "to_bool X" None (bool_of_v3 X)

let test_char_roundtrip () =
  List.iter
    (fun c -> Alcotest.check v3 "roundtrip" c (v3_of_char (char_of_v3 c)))
    all_v3;
  Alcotest.check v3 "lowercase x" X (v3_of_char 'x');
  Alcotest.check_raises "bad char" (Invalid_argument "Scalar_logic.v3_of_char: q")
    (fun () -> ignore (v3_of_char 'q'))

let test_ones () =
  (* All word_bits bits of [ones] are set. *)
  for i = 0 to Bitvec.word_bits - 1 do
    Alcotest.(check bool) "bit set" true (ones lsr i land 1 = 1)
  done

let test_mask_of_width () =
  Alcotest.(check int) "width 0" 0 (mask_of_width 0);
  Alcotest.(check int) "width 1" 1 (mask_of_width 1);
  Alcotest.(check int) "width 5" 31 (mask_of_width 5);
  Alcotest.(check int) "full width" ones (mask_of_width Bitvec.word_bits);
  for k = 0 to Bitvec.word_bits - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "mask %d population" k)
      true
      (let m = mask_of_width k in
       let rec pop w acc = if w = 0 then acc else pop (w land (w - 1)) (acc + 1) in
       pop m 0 = k)
  done

let test_iter_bits () =
  let bits w =
    let acc = ref [] in
    iter_bits w (fun i -> acc := i :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list int)) "zero word" [] (bits 0);
  Alcotest.(check (list int)) "bit 0" [ 0 ] (bits 1);
  Alcotest.(check (list int)) "bit 62" [ 62 ] (bits (1 lsl 62));
  Alcotest.(check (list int)) "bits 0 and 62" [ 0; 62 ] (bits ((1 lsl 62) lor 1));
  Alcotest.(check (list int))
    "all ones, ascending"
    (List.init Bitvec.word_bits Fun.id)
    (bits ones);
  Alcotest.(check (list int)) "scattered" [ 1; 5; 40 ] (bits ((1 lsl 40) lor 0b100010))

let test_popcount () =
  let popcount = Bitvec.popcount_word in
  Alcotest.(check int) "zero" 0 (popcount 0);
  Alcotest.(check int) "bit 0" 1 (popcount 1);
  Alcotest.(check int) "bit 62" 1 (popcount (1 lsl 62));
  Alcotest.(check int) "all ones" Bitvec.word_bits (popcount ones);
  for k = 0 to Bitvec.word_bits - 1 do
    Alcotest.(check int)
      (Printf.sprintf "mask width %d" k)
      k
      (popcount (mask_of_width k))
  done

let suite =
  [
    ( "logic",
      [
        Alcotest.test_case "not table" `Quick test_not_table;
        Alcotest.test_case "and table" `Quick test_and_table;
        Alcotest.test_case "or table" `Quick test_or_table;
        Alcotest.test_case "xor table" `Quick test_xor_table;
        Alcotest.test_case "de morgan" `Quick test_demorgan;
        Alcotest.test_case "bool roundtrip" `Quick test_bool_roundtrip;
        Alcotest.test_case "char roundtrip" `Quick test_char_roundtrip;
        Alcotest.test_case "ones" `Quick test_ones;
        Alcotest.test_case "mask_of_width" `Quick test_mask_of_width;
        Alcotest.test_case "iter_bits" `Quick test_iter_bits;
        Alcotest.test_case "popcount" `Quick test_popcount;
      ] );
  ]

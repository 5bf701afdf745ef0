let test_create_empty () =
  let v = Bitvec.create 100 in
  Alcotest.(check int) "length" 100 (Bitvec.length v);
  Alcotest.(check int) "popcount" 0 (Bitvec.popcount v);
  Alcotest.(check bool) "is_empty" true (Bitvec.is_empty v)

let test_set_get () =
  let v = Bitvec.create 130 in
  (* Indices straddling word boundaries (63 bits/word). *)
  List.iter (fun i -> Bitvec.set v i true) [ 0; 1; 62; 63; 64; 125; 126; 129 ];
  List.iter
    (fun i -> Alcotest.(check bool) (Printf.sprintf "bit %d" i) true (Bitvec.get v i))
    [ 0; 1; 62; 63; 64; 125; 126; 129 ];
  List.iter
    (fun i -> Alcotest.(check bool) (Printf.sprintf "bit %d clear" i) false (Bitvec.get v i))
    [ 2; 61; 65; 128 ];
  Bitvec.set v 63 false;
  Alcotest.(check bool) "cleared" false (Bitvec.get v 63);
  Alcotest.(check int) "popcount" 7 (Bitvec.popcount v)

let test_out_of_bounds () =
  let v = Bitvec.create 10 in
  Alcotest.check_raises "get -1" (Invalid_argument "Bitvec: index out of bounds") (fun () ->
      ignore (Bitvec.get v (-1)));
  Alcotest.check_raises "get 10" (Invalid_argument "Bitvec: index out of bounds") (fun () ->
      ignore (Bitvec.get v 10));
  Alcotest.check_raises "set 10" (Invalid_argument "Bitvec: index out of bounds") (fun () ->
      Bitvec.set v 10 true)

let test_fill () =
  let v = Bitvec.create 100 in
  Bitvec.fill v true;
  Alcotest.(check int) "all set" 100 (Bitvec.popcount v);
  Bitvec.fill v false;
  Alcotest.(check int) "all clear" 0 (Bitvec.popcount v)

let test_fill_exact_word () =
  let v = Bitvec.create 63 in
  Bitvec.fill v true;
  Alcotest.(check int) "63 bits" 63 (Bitvec.popcount v);
  let v = Bitvec.create 126 in
  Bitvec.fill v true;
  Alcotest.(check int) "126 bits" 126 (Bitvec.popcount v)

let test_copy_independent () =
  let v = Bitvec.create 20 in
  Bitvec.set v 3 true;
  let w = Bitvec.copy v in
  Bitvec.set w 4 true;
  Alcotest.(check bool) "original unchanged" false (Bitvec.get v 4);
  Alcotest.(check bool) "copy has both" true (Bitvec.get w 3 && Bitvec.get w 4)

let test_equal () =
  let v = Bitvec.of_list 70 [ 1; 65 ] in
  let w = Bitvec.of_list 70 [ 1; 65 ] in
  Alcotest.(check bool) "equal" true (Bitvec.equal v w);
  Bitvec.set w 2 true;
  Alcotest.(check bool) "not equal" false (Bitvec.equal v w);
  Alcotest.(check bool) "length mismatch" false
    (Bitvec.equal v (Bitvec.create 71))

let test_set_ops () =
  let a = Bitvec.of_list 100 [ 1; 5; 70; 99 ] in
  let b = Bitvec.of_list 100 [ 5; 70; 80 ] in
  let u = Bitvec.copy a in
  Bitvec.union_into ~dst:u b;
  Alcotest.(check (list int)) "union" [ 1; 5; 70; 80; 99 ] (Bitvec.to_list u);
  let i = Bitvec.copy a in
  Bitvec.inter_into ~dst:i b;
  Alcotest.(check (list int)) "inter" [ 5; 70 ] (Bitvec.to_list i);
  let d = Bitvec.copy a in
  Bitvec.diff_into ~dst:d b;
  Alcotest.(check (list int)) "diff" [ 1; 99 ] (Bitvec.to_list d)

let test_length_mismatch () =
  let a = Bitvec.create 10 and b = Bitvec.create 11 in
  Alcotest.check_raises "union mismatch" (Invalid_argument "Bitvec: length mismatch")
    (fun () -> Bitvec.union_into ~dst:a b)

let test_iter_set_order () =
  let v = Bitvec.of_list 200 [ 199; 0; 64; 63; 127 ] in
  let order = ref [] in
  Bitvec.iter_set v (fun i -> order := i :: !order);
  Alcotest.(check (list int)) "ascending" [ 0; 63; 64; 127; 199 ] (List.rev !order)

let test_of_list_roundtrip () =
  let l = [ 0; 7; 62; 63; 64; 100 ] in
  Alcotest.(check (list int)) "roundtrip" l (Bitvec.to_list (Bitvec.of_list 101 l))

let test_pp () =
  let v = Bitvec.of_list 5 [ 0; 3 ] in
  Alcotest.(check string) "pp" "10010" (Format.asprintf "%a" Bitvec.pp v)

(* Property: Bitvec behaves like a reference bool array under a random
   operation sequence. *)
let qcheck_vs_reference =
  let gen = QCheck.(pair (int_range 1 150) (small_list (pair small_nat bool))) in
  QCheck.Test.make ~name:"bitvec matches bool-array reference" ~count:500 gen
    (fun (len, ops) ->
      let v = Bitvec.create len in
      let r = Array.make len false in
      List.iter
        (fun (i, b) ->
          let i = i mod len in
          Bitvec.set v i b;
          r.(i) <- b)
        ops;
      let ok = ref true in
      Array.iteri (fun i b -> if Bitvec.get v i <> b then ok := false) r;
      !ok
      && Bitvec.popcount v = Array.fold_left (fun acc b -> acc + Bool.to_int b) 0 r)

let qcheck_ops_vs_reference =
  let gen = QCheck.(triple (int_range 1 200) (small_list small_nat) (small_list small_nat)) in
  QCheck.Test.make ~name:"set ops match list model" ~count:500 gen
    (fun (len, xs, ys) ->
      let norm l = List.sort_uniq compare (List.map (fun x -> x mod len) l) in
      let xs = norm xs and ys = norm ys in
      let a = Bitvec.of_list len xs and b = Bitvec.of_list len ys in
      let u = Bitvec.copy a in
      Bitvec.union_into ~dst:u b;
      let i = Bitvec.copy a in
      Bitvec.inter_into ~dst:i b;
      let d = Bitvec.copy a in
      Bitvec.diff_into ~dst:d b;
      Bitvec.to_list u = List.sort_uniq compare (xs @ ys)
      && Bitvec.to_list i = List.filter (fun x -> List.mem x ys) xs
      && Bitvec.to_list d = List.filter (fun x -> not (List.mem x ys)) xs)

(* The branch-free popcount against a clear-lowest-bit reference loop,
   on random 63-bit words plus the sign and top-bit edges every run. *)
let qcheck_popcount_word =
  let kernighan w =
    let rec go acc w = if w = 0 then acc else go (acc + 1) (w land (w - 1)) in
    go 0 w
  in
  QCheck.Test.make ~name:"popcount_word matches Kernighan loop" ~count:1000 QCheck.int
    (fun w ->
      List.for_all
        (fun w -> Bitvec.popcount_word w = kernighan w)
        [ w; 0; -1; min_int; max_int; 1 lsl 62; (1 lsl 62) - 1 ])

let suite =
  [
    ( "bitvec",
      [
        Alcotest.test_case "create empty" `Quick test_create_empty;
        Alcotest.test_case "set/get across words" `Quick test_set_get;
        Alcotest.test_case "out of bounds" `Quick test_out_of_bounds;
        Alcotest.test_case "fill" `Quick test_fill;
        Alcotest.test_case "fill exact word" `Quick test_fill_exact_word;
        Alcotest.test_case "copy independent" `Quick test_copy_independent;
        Alcotest.test_case "equal" `Quick test_equal;
        Alcotest.test_case "union/inter/diff" `Quick test_set_ops;
        Alcotest.test_case "length mismatch" `Quick test_length_mismatch;
        Alcotest.test_case "iter_set ascending" `Quick test_iter_set_order;
        Alcotest.test_case "of_list roundtrip" `Quick test_of_list_roundtrip;
        Alcotest.test_case "pp" `Quick test_pp;
        QCheck_alcotest.to_alcotest qcheck_vs_reference;
        QCheck_alcotest.to_alcotest qcheck_ops_vs_reference;
        QCheck_alcotest.to_alcotest qcheck_popcount_word;
      ] );
  ]

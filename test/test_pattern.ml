let test_of_list_get () =
  let p =
    Pattern.of_list ~npis:3 [ [| true; false; true |]; [| false; false; true |] ]
  in
  Alcotest.(check int) "count" 2 (Pattern.count p);
  Alcotest.(check int) "npis" 3 (Pattern.npis p);
  Alcotest.(check bool) "p0 i0" true (Pattern.get p 0 0);
  Alcotest.(check bool) "p1 i0" false (Pattern.get p 1 0);
  Alcotest.(check bool) "p1 i2" true (Pattern.get p 1 2)

let test_width_mismatch () =
  Alcotest.check_raises "width" (Invalid_argument "Pattern: PI vector width mismatch")
    (fun () -> ignore (Pattern.of_list ~npis:3 [ [| true |] ]))

let test_immutability () =
  let src = [| true; true |] in
  let p = Pattern.of_list ~npis:2 [ src ] in
  src.(0) <- false;
  Alcotest.(check bool) "copied on build" true (Pattern.get p 0 0);
  let v = Pattern.pattern p 0 in
  v.(1) <- false;
  Alcotest.(check bool) "copied on read" true (Pattern.get p 0 1)

let test_exhaustive () =
  let p = Pattern.exhaustive ~npis:4 in
  Alcotest.(check int) "count" 16 (Pattern.count p);
  (* Pattern v encodes integer v LSB-first. *)
  for v = 0 to 15 do
    for i = 0 to 3 do
      Alcotest.(check bool)
        (Printf.sprintf "v=%d i=%d" v i)
        (v land (1 lsl i) <> 0)
        (Pattern.get p v i)
    done
  done

let test_random_deterministic () =
  let mk seed = Pattern.random (Rng.create seed) ~npis:10 ~count:20 in
  let a = mk 5 and b = mk 5 and c = mk 6 in
  let same x y =
    List.for_all
      (fun p -> Pattern.to_string x p = Pattern.to_string y p)
      (List.init 20 Fun.id)
  in
  Alcotest.(check bool) "same seed" true (same a b);
  Alcotest.(check bool) "different seed" false (same a c)

let test_append () =
  let a = Pattern.of_list ~npis:2 [ [| true; true |]; [| false; true |] ] in
  let b = Pattern.of_list ~npis:2 [ [| false; false |] ] in
  let c = Pattern.append a b in
  Alcotest.(check int) "count" 3 (Pattern.count c);
  Alcotest.(check string) "last" "00" (Pattern.to_string c 2);
  Alcotest.check_raises "append mismatch"
    (Invalid_argument "Pattern.append: PI count mismatch") (fun () ->
      ignore (Pattern.append a (Pattern.of_list ~npis:3 [])))

let test_blocks_packing () =
  (* 130 patterns over 3 PIs -> 3 blocks of 63, 63, 4; word bit k of PI i
     must equal pattern (base+k) bit i. *)
  let rng = Rng.create 9 in
  let p = Pattern.random rng ~npis:3 ~count:130 in
  let blocks = Pattern.blocks p in
  Alcotest.(check int) "3 blocks" 3 (List.length blocks);
  Alcotest.(check (list int)) "widths" [ 63; 63; 4 ]
    (List.map (fun b -> b.Pattern.width) blocks);
  Alcotest.(check (list int)) "bases" [ 0; 63; 126 ]
    (List.map (fun b -> b.Pattern.base) blocks);
  List.iter
    (fun b ->
      for k = 0 to b.Pattern.width - 1 do
        for i = 0 to 2 do
          Alcotest.(check bool) "bit" (Pattern.get p (b.Pattern.base + k) i)
            (b.Pattern.pi_words.(i) lsr k land 1 = 1)
        done
      done;
      (* Dead bits above width must be zero. *)
      for i = 0 to 2 do
        Alcotest.(check int) "dead bits"
          0
          (b.Pattern.pi_words.(i) lsr b.Pattern.width)
      done)
    blocks

let test_empty_set () =
  let p = Pattern.of_list ~npis:4 [] in
  Alcotest.(check int) "count" 0 (Pattern.count p);
  Alcotest.(check int) "no blocks" 0 (List.length (Pattern.blocks p))

let qcheck_blocks_roundtrip =
  QCheck.Test.make ~name:"blocks reproduce every pattern bit" ~count:100
    QCheck.(pair (int_range 1 8) (int_range 1 200))
    (fun (npis, count) ->
      let p = Pattern.random (Rng.create (npis + count)) ~npis ~count in
      List.for_all
        (fun b ->
          List.for_all
            (fun k ->
              List.for_all
                (fun i ->
                  Pattern.get p (b.Pattern.base + k) i
                  = (b.Pattern.pi_words.(i) lsr k land 1 = 1))
                (List.init npis Fun.id))
            (List.init b.Pattern.width Fun.id))
        (Pattern.blocks p))

(* [read_file] is the CLI's pattern-file boundary: a good file round-
   trips, a malformed one is an [Error] naming the file — never a stray
   exception — and a missing one is an [Error] too. *)
let with_file text f =
  let path = Filename.temp_file "mddpat" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      f path)

let test_read_file () =
  let p = Pattern.random (Rng.create 3) ~npis:5 ~count:9 in
  with_file (Pattern.to_text p) (fun path ->
      match Pattern.read_file path with
      | Ok q -> Alcotest.(check string) "round trip" (Pattern.to_text p) (Pattern.to_text q)
      | Error msg -> Alcotest.fail msg);
  (* Each line is trimmed and a blank one skipped, CRLF endings
     included. *)
  with_file "\n  01\r\n\t\n10 \n\n11" (fun path ->
      match Pattern.read_file path with
      | Ok q ->
        Alcotest.(check string) "blanks trimmed" "01\n10\n11\n" (Pattern.to_text q)
      | Error msg -> Alcotest.fail msg);
  let rejects name text reason =
    with_file text (fun path ->
        match Pattern.read_file path with
        | Ok _ -> Alcotest.failf "%s accepted" name
        | Error msg ->
          Alcotest.(check string) name (path ^ ": Pattern.of_text: " ^ reason) msg)
  in
  rejects "ragged" "0101\n011\n" "ragged pattern lines";
  rejects "bad character" "0101\n01x1\n" "bad character x";
  rejects "ragged before bad character" "0101\n01x\n" "ragged pattern lines";
  match Pattern.read_file "/nonexistent/mdd-patterns.txt" with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error _ -> ()

let suite =
  [
    ( "pattern",
      [
        Alcotest.test_case "of_list/get" `Quick test_of_list_get;
        Alcotest.test_case "width mismatch" `Quick test_width_mismatch;
        Alcotest.test_case "immutability" `Quick test_immutability;
        Alcotest.test_case "exhaustive" `Quick test_exhaustive;
        Alcotest.test_case "random deterministic" `Quick test_random_deterministic;
        Alcotest.test_case "append" `Quick test_append;
        Alcotest.test_case "blocks packing" `Quick test_blocks_packing;
        Alcotest.test_case "empty set" `Quick test_empty_set;
        Alcotest.test_case "read_file errors" `Quick test_read_file;
        QCheck_alcotest.to_alcotest qcheck_blocks_roundtrip;
      ] );
  ]

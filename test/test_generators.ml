(* Functional correctness of every circuit generator: the synthetic
   benchmarks must compute the arithmetic they claim, or every experiment
   downstream is meaningless. *)

let bits_of_int w v = Array.init w (fun i -> v land (1 lsl i) <> 0)

let int_of_bits values nets =
  List.fold_left
    (fun acc (i, n) -> if values.(n) then acc lor (1 lsl i) else acc)
    0
    (List.mapi (fun i n -> (i, n)) nets)

let po_list net = Array.to_list (Netlist.pos net)

let test_ripple_adder () =
  let w = 6 in
  let net = Generators.ripple_adder w in
  Alcotest.(check int) "pis" ((2 * w) + 1) (Netlist.num_pis net);
  Alcotest.(check int) "pos" (w + 1) (Netlist.num_pos net);
  let rng = Rng.create 1 in
  for _ = 1 to 200 do
    let a = Rng.int rng (1 lsl w) in
    let b = Rng.int rng (1 lsl w) in
    let cin = Rng.int rng 2 in
    let inputs = Array.concat [ bits_of_int w a; bits_of_int w b; [| cin = 1 |] ] in
    let values = Scalar_logic.simulate_pattern net inputs in
    let result = int_of_bits values (po_list net) in
    Alcotest.(check int) (Printf.sprintf "%d+%d+%d" a b cin) (a + b + cin) result
  done

let test_multiplier () =
  let w = 4 in
  let net = Generators.multiplier w in
  Alcotest.(check int) "pos" (2 * w) (Netlist.num_pos net);
  for a = 0 to (1 lsl w) - 1 do
    for b = 0 to (1 lsl w) - 1 do
      let inputs = Array.append (bits_of_int w a) (bits_of_int w b) in
      let values = Scalar_logic.simulate_pattern net inputs in
      let result = int_of_bits values (po_list net) in
      Alcotest.(check int) (Printf.sprintf "%d*%d" a b) (a * b) result
    done
  done

let test_multiplier_8 () =
  let w = 8 in
  let net = Generators.multiplier w in
  let rng = Rng.create 2 in
  for _ = 1 to 100 do
    let a = Rng.int rng 256 and b = Rng.int rng 256 in
    let inputs = Array.append (bits_of_int w a) (bits_of_int w b) in
    let values = Scalar_logic.simulate_pattern net inputs in
    Alcotest.(check int) "product" (a * b) (int_of_bits values (po_list net))
  done

let test_alu () =
  let w = 4 in
  let net = Generators.alu w in
  let rng = Rng.create 3 in
  for _ = 1 to 200 do
    let a = Rng.int rng 16 and b = Rng.int rng 16 in
    let s0 = Rng.bool rng and s1 = Rng.bool rng in
    let inputs = Array.concat [ bits_of_int w a; bits_of_int w b; [| s0; s1 |] ] in
    let values = Scalar_logic.simulate_pattern net inputs in
    let pos = po_list net in
    let result_nets = List.filteri (fun i _ -> i < w) pos in
    let result = int_of_bits values result_nets in
    (* mux structure: s1 selects (s0 ? or : and) vs (s0 ? add : xor). *)
    let expect =
      match (s1, s0) with
      | false, false -> a land b
      | false, true -> a lor b
      | true, false -> a lxor b
      | true, true -> (a + b) land ((1 lsl w) - 1)
    in
    Alcotest.(check int) "alu result" expect result;
    let zero = values.(List.nth pos w) in
    Alcotest.(check bool) "zero flag" (expect = 0) zero
  done

let test_parity () =
  let w = 9 in
  let net = Generators.parity w in
  let rng = Rng.create 4 in
  for _ = 1 to 200 do
    let inputs = Array.init w (fun _ -> Rng.bool rng) in
    let values = Scalar_logic.simulate_pattern net inputs in
    let expect = Array.fold_left (fun acc b -> acc <> b) false inputs in
    Alcotest.(check bool) "parity" expect values.((Netlist.pos net).(0))
  done

let test_decoder () =
  let n = 3 in
  let net = Generators.decoder n in
  for code = 0 to 7 do
    List.iter
      (fun en ->
        let inputs = Array.append (bits_of_int n code) [| en |] in
        let values = Scalar_logic.simulate_pattern net inputs in
        Array.iteri
          (fun line po ->
            let expect = en && line = code in
            Alcotest.(check bool) (Printf.sprintf "line %d code %d" line code) expect
              values.(po))
          (Netlist.pos net))
      [ true; false ]
  done

let test_comparator () =
  let w = 5 in
  let net = Generators.comparator w in
  let rng = Rng.create 5 in
  for _ = 1 to 300 do
    let a = Rng.int rng 32 and b = Rng.int rng 32 in
    let inputs = Array.append (bits_of_int w a) (bits_of_int w b) in
    let values = Scalar_logic.simulate_pattern net inputs in
    let pos = Netlist.pos net in
    Alcotest.(check bool) "eq" (a = b) values.(pos.(0));
    Alcotest.(check bool) "lt" (a < b) values.(pos.(1));
    Alcotest.(check bool) "gt" (a > b) values.(pos.(2))
  done

let test_mux_tree () =
  let k = 3 in
  let net = Generators.mux_tree k in
  let rng = Rng.create 6 in
  for _ = 1 to 200 do
    let data = Array.init (1 lsl k) (fun _ -> Rng.bool rng) in
    let sel = Rng.int rng (1 lsl k) in
    let inputs = Array.append data (bits_of_int k sel) in
    let values = Scalar_logic.simulate_pattern net inputs in
    Alcotest.(check bool) "selected" data.(sel) values.((Netlist.pos net).(0))
  done

let test_majority () =
  List.iter
    (fun w ->
      let net = Generators.majority w in
      let rng = Rng.create 7 in
      for _ = 1 to 200 do
        let inputs = Array.init w (fun _ -> Rng.bool rng) in
        let values = Scalar_logic.simulate_pattern net inputs in
        let ones = Array.fold_left (fun acc b -> acc + Bool.to_int b) 0 inputs in
        let expect = ones > w / 2 in
        Alcotest.(check bool)
          (Printf.sprintf "majority w=%d ones=%d" w ones)
          expect
          values.((Netlist.pos net).(0))
      done)
    [ 3; 5; 9 ]

let test_majority_exhaustive_3 () =
  let net = Generators.majority 3 in
  for code = 0 to 7 do
    let inputs = bits_of_int 3 code in
    let values = Scalar_logic.simulate_pattern net inputs in
    let ones = Array.fold_left (fun acc b -> acc + Bool.to_int b) 0 inputs in
    Alcotest.(check bool) (Printf.sprintf "code %d" code) (ones >= 2)
      values.((Netlist.pos net).(0))
  done

let test_carry_lookahead_adder () =
  (* Must agree with the ripple adder bit for bit. *)
  let w = 9 in
  let cla = Generators.carry_lookahead_adder w in
  Alcotest.(check int) "pis" ((2 * w) + 1) (Netlist.num_pis cla);
  Alcotest.(check int) "pos" (w + 1) (Netlist.num_pos cla);
  let rng = Rng.create 8 in
  for _ = 1 to 300 do
    let a = Rng.int rng (1 lsl w) in
    let b = Rng.int rng (1 lsl w) in
    let cin = Rng.int rng 2 in
    let inputs = Array.concat [ bits_of_int w a; bits_of_int w b; [| cin = 1 |] ] in
    let values = Scalar_logic.simulate_pattern cla inputs in
    Alcotest.(check int)
      (Printf.sprintf "%d+%d+%d" a b cin)
      (a + b + cin)
      (int_of_bits values (po_list cla))
  done;
  (* The CLA is shallower than the ripple adder of the same width. *)
  Alcotest.(check bool) "shallower" true
    (Netlist.depth cla < Netlist.depth (Generators.ripple_adder w))

let test_barrel_shifter () =
  let k = 3 in
  let width = 1 lsl k in
  let net = Generators.barrel_shifter k in
  let rng = Rng.create 9 in
  for _ = 1 to 200 do
    let d = Rng.int rng (1 lsl width) in
    let s = Rng.int rng width in
    let inputs = Array.append (bits_of_int width d) (bits_of_int k s) in
    let values = Scalar_logic.simulate_pattern net inputs in
    let expect = (d lsl s) land ((1 lsl width) - 1) in
    Alcotest.(check int) (Printf.sprintf "%d<<%d" d s) expect
      (int_of_bits values (po_list net))
  done

let test_priority_encoder () =
  let n = 3 in
  let width = 1 lsl n in
  let net = Generators.priority_encoder n in
  for req = 0 to (1 lsl width) - 1 do
    let inputs = bits_of_int width req in
    let values = Scalar_logic.simulate_pattern net inputs in
    let pos = po_list net in
    let code_nets = List.filteri (fun i _ -> i < n) pos in
    let valid_net = List.nth pos n in
    if req = 0 then Alcotest.(check bool) "invalid" false values.(valid_net)
    else begin
      Alcotest.(check bool) "valid" true values.(valid_net);
      let highest =
        let rec find i = if req land (1 lsl i) <> 0 then i else find (i - 1) in
        find (width - 1)
      in
      Alcotest.(check int) (Printf.sprintf "req=%x" req) highest
        (int_of_bits values code_nets)
    end
  done

let test_gray_decoder () =
  let w = 8 in
  let net = Generators.gray_decoder w in
  let rng = Rng.create 10 in
  for _ = 1 to 200 do
    let binary = Rng.int rng 256 in
    let gray = binary lxor (binary lsr 1) in
    let values = Scalar_logic.simulate_pattern net (bits_of_int w gray) in
    Alcotest.(check int) (Printf.sprintf "gray %x" gray) binary
      (int_of_bits values (po_list net))
  done

let test_crc_step () =
  let w = 8 in
  let net = Generators.crc_step w in
  let rng = Rng.create 11 in
  let taps = [ 0; 1; w / 2 ] in
  for _ = 1 to 200 do
    let state = Rng.int rng 256 in
    let d = Rng.bool rng in
    let inputs = Array.append (bits_of_int w state) [| d |] in
    let values = Scalar_logic.simulate_pattern net inputs in
    let feedback = (state lsr (w - 1)) land 1 = 1 <> d in
    let expect = ref 0 in
    for i = 0 to w - 1 do
      let shifted = if i = 0 then false else state land (1 lsl (i - 1)) <> 0 in
      let bit =
        if i = 0 then feedback
        else if List.mem i taps then shifted <> feedback
        else shifted
      in
      if bit then expect := !expect lor (1 lsl i)
    done;
    Alcotest.(check int)
      (Printf.sprintf "state %x d %b" state d)
      !expect
      (int_of_bits values (po_list net))
  done

let test_random_logic_deterministic () =
  let a = Generators.random_logic ~gates:100 ~pis:8 ~pos:4 ~seed:3 in
  let b = Generators.random_logic ~gates:100 ~pis:8 ~pos:4 ~seed:3 in
  Alcotest.(check string) "same netlist" (Bench_io.to_string a) (Bench_io.to_string b);
  let c = Generators.random_logic ~gates:100 ~pis:8 ~pos:4 ~seed:4 in
  Alcotest.(check bool) "different seed differs" true
    (Bench_io.to_string a <> Bench_io.to_string c)

let test_random_logic_no_dead_nets () =
  let net = Generators.random_logic ~gates:200 ~pis:10 ~pos:6 ~seed:9 in
  (* Every non-PO net must have at least one reader. *)
  Netlist.iter_nets net (fun n ->
      if not (Netlist.is_po net n) then
        Alcotest.(check bool)
          (Printf.sprintf "net %s read" (Netlist.name net n))
          true
          (Array.length (Reference.fanout net n) > 0 || Netlist.is_pi net n))

let test_c17_known_response () =
  let net = Generators.c17 () in
  (* From the c17 truth table: all-zero input gives G22=1 (NAND of 1,?) —
     compute: G10=NAND(0,0)=1, G11=NAND(0,0)=1, G16=NAND(0,1)=1,
     G19=NAND(1,0)=1, G22=NAND(1,1)=0... checked by hand: G22=0, G23=0. *)
  let values = Scalar_logic.simulate_pattern net [| false; false; false; false; false |] in
  let g22 = Option.get (Netlist.find net "G22") in
  let g23 = Option.get (Netlist.find net "G23") in
  Alcotest.(check bool) "G22" false values.(g22);
  Alcotest.(check bool) "G23" false values.(g23);
  (* All-ones input: G10=NAND(1,1)=0, G11=0, G16=NAND(1,0)=1, G19=NAND(0,1)=1,
     G22=NAND(0,1)=1, G23=NAND(1,1)=0. *)
  let values = Scalar_logic.simulate_pattern net [| true; true; true; true; true |] in
  Alcotest.(check bool) "G22 ones" true values.(g22);
  Alcotest.(check bool) "G23 ones" false values.(g23)

let test_suite_unique_names () =
  let names = List.map fst (Generators.suite ()) in
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "find works" true (Generators.find_suite "c17" <> None);
  Alcotest.(check bool) "find missing" true (Generators.find_suite "nope" = None)

(* MD5 of every net's name plus {!Netlist.add_structure}, pinned from
   the generators as they stood when the suite became lazy and
   [random_logic] started building its netlist once: the same names,
   gates, fanin order and PO order, so every table and every stored
   file keyed on the structure is unchanged. *)
let suite_digests =
  [
    ("c17", "d1970ea0b3732cf2bcfddfe02349afb8");
    ("par16", "af84f01c4ace37ccffba4c66cd13acf9");
    ("dec4", "c02f7be765519e070bdfd61b9f067208");
    ("gray8", "429a4fdc619e1bd35d1c33e5bd84c779");
    ("add8", "d5291c7a55a0abaf9802660f7a92f68b");
    ("penc4", "5f5e9435a966abdb4a42fb81da68d47d");
    ("crc16", "fdf8fa38ce7db19f47f55408311e2322");
    ("cmp16", "87555c111df0e6bac7e0b4b022eb4c30");
    ("cla16", "dafccb0917a9b8c18819d731acddb887");
    ("mux5", "0d5dbc087f46a5ec30d2b5abed096ac5");
    ("maj9", "eacd2f0ffeeaf4831819f5f8e79e7cab");
    ("bshift4", "91c9b8d78bb05e7f01a5fd2047a2fe1c");
    ("alu8", "733725fd551a9511fdbda04d8e033218");
    ("add32", "12f9372c88d753a5f4e622f15969a8e6");
    ("mult8", "d44c08d35cb3627f06fcdcabd0e543c8");
    ("rnd1k", "0a7f955d0a489e4a88605bdbc7d1302b");
    ("rnd2k", "04c984005b3c1c96d48b155630d70d7f");
  ]

let netlist_digest net =
  let buf = Buffer.create 4096 in
  Netlist.iter_nets net (fun n ->
      Buffer.add_string buf (Netlist.name net n);
      Buffer.add_char buf '\n');
  Netlist.add_structure buf net;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_suite_digests () =
  Alcotest.(check (list string)) "suite names" (List.map fst suite_digests)
    Generators.suite_names;
  List.iter
    (fun (name, net) ->
      Alcotest.(check string) name (List.assoc name suite_digests) (netlist_digest net))
    (Generators.suite ())

(* A lookup forces the same lazy entry the whole suite does. *)
let test_find_suite_shares () =
  List.iter
    (fun name ->
      let one = Option.get (Generators.find_suite name) in
      Alcotest.(check bool) (name ^ " physically shared") true
        (one == List.assoc name (Generators.suite ())))
    Generators.suite_names

(* The generated tiers, pinned the same way. *)
let tier_digests =
  [
    ("rnd10k", "09ae857197d67d9bf0bc1c03e7821bdb");
    ("rnd50k", "322485f0e88e4d8b453e8d11d079fb11");
  ]

(* The source-key guard.  A stored design image is found by
   "generator <name> v<version>", never by hashing the built
   circuit, so a generator change that keeps the version would load
   images of the old circuit.  The pins above are recorded here per
   version, as one digest over all of them: a change to any generator
   fails its pin, re-pinning fails this check unless the new combined
   digest is recorded under a new version, and that version must be
   the one every generated source key carries.  Append, never edit, an
   entry. *)
let version_history = [ (1, "0e384021bd708a8199494d86d08be295") ]

let pins_digest () =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map
             (fun (name, d) -> name ^ "=" ^ d ^ "\n")
             (suite_digests @ tier_digests))))

let test_source_key_guard () =
  List.iter
    (fun (name, pinned) ->
      Alcotest.(check string) name pinned
        (netlist_digest (Option.get (Generators.find_tier name))))
    tier_digests;
  let versions = List.map fst version_history in
  Alcotest.(check bool) "versions ascend" true
    (List.sort_uniq compare versions = versions);
  let current = List.nth versions (List.length versions - 1) in
  List.iter
    (fun name ->
      Alcotest.(check (option string))
        (name ^ " keyed by the last recorded version")
        (Some (Printf.sprintf "generator %s v%d" name current))
        (Generators.source_key name))
    (Generators.suite_names @ List.map fst tier_digests);
  Alcotest.(check string) "pins recorded under the current version"
    (List.assoc current version_history) (pins_digest ());
  (* The key a lookup computes without building is the one the built
     netlist carries. *)
  List.iter
    (fun name ->
      let net =
        match Generators.find_suite name with
        | Some net -> net
        | None -> Option.get (Generators.find_tier name)
      in
      Alcotest.(check (option string)) (name ^ " source key") (Some (Netlist.source net))
        (Generators.source_key name))
    (Generators.suite_names @ List.map fst tier_digests);
  Alcotest.(check (option string)) "unknown name" None (Generators.source_key "nope")

let suite =
  [
    ( "generators",
      [
        Alcotest.test_case "ripple adder adds" `Quick test_ripple_adder;
        Alcotest.test_case "multiplier 4x4 exhaustive" `Quick test_multiplier;
        Alcotest.test_case "multiplier 8x8 random" `Quick test_multiplier_8;
        Alcotest.test_case "alu ops" `Quick test_alu;
        Alcotest.test_case "parity" `Quick test_parity;
        Alcotest.test_case "decoder" `Quick test_decoder;
        Alcotest.test_case "comparator" `Quick test_comparator;
        Alcotest.test_case "mux tree" `Quick test_mux_tree;
        Alcotest.test_case "majority" `Quick test_majority;
        Alcotest.test_case "majority 3 exhaustive" `Quick test_majority_exhaustive_3;
        Alcotest.test_case "carry-lookahead adder" `Quick test_carry_lookahead_adder;
        Alcotest.test_case "barrel shifter" `Quick test_barrel_shifter;
        Alcotest.test_case "priority encoder" `Quick test_priority_encoder;
        Alcotest.test_case "gray decoder" `Quick test_gray_decoder;
        Alcotest.test_case "crc step" `Quick test_crc_step;
        Alcotest.test_case "random logic deterministic" `Quick test_random_logic_deterministic;
        Alcotest.test_case "random logic no dead nets" `Quick test_random_logic_no_dead_nets;
        Alcotest.test_case "c17 known responses" `Quick test_c17_known_response;
        Alcotest.test_case "suite unique names" `Quick test_suite_unique_names;
        Alcotest.test_case "suite netlists match pinned digests" `Quick
          test_suite_digests;
        Alcotest.test_case "find_suite shares the suite's netlist" `Quick
          test_find_suite_shares;
        Alcotest.test_case "generator digests pinned to Generators.version" `Quick
          test_source_key_guard;
      ] );
  ]

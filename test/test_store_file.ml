(* The design image's envelope ([Store_file]) and its netlist section
   ([Netlist.encode]/[Netlist.decode]).  The checksum must reject every
   single-bit flip, every truncation and every swap of two unequal
   words; the netlist section must round-trip every accessor, and a
   mutated section must be refused — [None] from the decoder, a counted
   rejection from the loader — never an exception. *)

(* A small image with all three sections: c17, 64 patterns, every
   class representative swept. *)
let saved =
  lazy
    (let net = Generators.c17 () in
     let pats = Pattern.random (Rng.create 7) ~npis:(Netlist.num_pis net) ~count:64 in
     Temp_dir.with_dir @@ fun dir ->
     let session = Session.create net pats in
     ignore (Session.prewarm session : int);
     ignore (Sig_cache.save_frozen ~dir (Option.get (Session.cache session)) : bool);
     let path = Store_file.path ~dir ~source:(Netlist.source net) in
     (Store_file.key net pats, Image_edit.read path))

(* [f raw refused] on the saved image's bytes, where [refused b] tells
   whether the loader refuses [b] at the checksum or before — the
   decoder accepts anything.  The probe file lives in the case's own
   temp dir. *)
let with_saved f =
  let key, raw = Lazy.force saved in
  Temp_dir.with_dir @@ fun dir ->
  let probe = Filename.concat dir "probe.mddimg" in
  f raw (fun b ->
      Image_edit.write probe b;
      Store_file.load ~path:probe ~key ignore = None)

let test_pristine_loads () =
  with_saved @@ fun raw refused ->
  Alcotest.(check bool) "pristine image loads" false (refused raw);
  let sections = (Image_edit.split raw).Image_edit.sections in
  Alcotest.(check int) "three sections" 3 (Array.length sections);
  Array.iteri
    (fun i (_, bytes) ->
      Alcotest.(check bool)
        (Printf.sprintf "section %d non-empty" i)
        true
        (Bytes.length bytes > 0))
    sections

(* Every bit of a sample of the file's 8-byte words — every third word,
   and every byte of the last eight, so a checksum that skipped the
   final (possibly partial) word would show — flipped one at a time. *)
let test_bit_flips () =
  with_saved @@ fun raw refused ->
  let len = Bytes.length raw in
  let positions =
    List.init len Fun.id |> List.filter (fun i -> i / 8 mod 3 = 0 || i >= len - 8)
  in
  List.iter
    (fun i ->
      for bit = 0 to 7 do
        let b = Bytes.copy raw in
        Image_edit.flip_bit b i bit;
        if not (refused b) then Alcotest.failf "flip of byte %d bit %d accepted" i bit
      done)
    positions

let test_truncations () =
  with_saved @@ fun raw refused ->
  for cut = 0 to Bytes.length raw - 1 do
    if not (refused (Bytes.sub raw 0 cut)) then
      Alcotest.failf "truncation to %d accepted" cut
  done;
  Alcotest.(check bool) "one byte appended" true
    (refused (Bytes.cat raw (Bytes.make 1 '\000')))

(* Swap pairs of unequal 32-bit words of the checksummed bytes: the
   plain sum stays, the weighted one must move. *)
let test_word_swaps () =
  with_saved @@ fun raw refused ->
  let words = (Bytes.length raw - Image_edit.header_len) / 4 in
  let word b k = Bytes.get_int32_le b (Image_edit.header_len + (4 * k)) in
  let swaps = ref 0 in
  for i = 0 to words - 1 do
    let j = (i * 7919 + 13) mod words in
    if word raw i <> word raw j then begin
      let b = Bytes.copy raw in
      let wi = word raw i and wj = word raw j in
      Bytes.set_int32_le b (Image_edit.header_len + (4 * i)) wj;
      Bytes.set_int32_le b (Image_edit.header_len + (4 * j)) wi;
      incr swaps;
      if not (refused b) then Alcotest.failf "swap of words %d and %d accepted" i j
    end
  done;
  Alcotest.(check bool) "some swaps tried" true (!swaps > 100)

(* The checksum as the interface defines it, one 32-bit word at a time:
   the length's two words, then the bytes zero-padded to a multiple of
   8, summed modulo 2^61 - 1 (s1) and the running values of s1 summed
   likewise (s2). *)
let reference_checksum b ~pos ~len =
  let p = (1 lsl 61) - 1 in
  let add x y = (x + y) mod p in
  let s1 = ref 0 and s2 = ref 0 in
  let word w =
    s1 := add !s1 w;
    s2 := add !s2 !s1
  in
  word (len land 0xffff_ffff);
  word (len lsr 32);
  let byte i = if i < len then Char.code (Bytes.get b (pos + i)) else 0 in
  for k = 0 to (2 * ((len + 7) / 8)) - 1 do
    word
      (byte (4 * k)
      lor (byte ((4 * k) + 1) lsl 8)
      lor (byte ((4 * k) + 2) lsl 16)
      lor (byte ((4 * k) + 3) lsl 24))
  done;
  (!s1, !s2)

(* Random bytes at random offsets and lengths, mostly 0xff so the sums
   run near their bounds, and one long all-0xff buffer. *)
let prop_checksum_matches_definition =
  QCheck.Test.make ~name:"checksum = its per-word definition" ~count:300
    QCheck.(triple (int_range 0 300) (int_range 0 15) (int_range 0 1_000_000))
    (fun (len, pos, seed) ->
      let rng = Rng.create seed in
      let b =
        Bytes.init (pos + len + 8) (fun _ ->
            if Rng.int rng 4 = 0 then Char.chr (Rng.int rng 256) else '\255')
      in
      Store_file.checksum (Bigstring.of_bytes b) ~pos ~len
      = reference_checksum b ~pos ~len
      &&
      let long = Bytes.make (100_000 + len) '\255' in
      Store_file.checksum (Bigstring.of_bytes long) ~pos:0 ~len:(Bytes.length long)
      = reference_checksum long ~pos:0 ~len:(Bytes.length long))

(* --- The netlist section ------------------------------------------- *)

let encode net =
  let buf = Buffer.create 4096 in
  Netlist.encode buf net;
  Buffer.to_bytes buf

let decode b = Netlist.decode (Bigstring.of_bytes b) ~off:0 ~len:(Bytes.length b)

let same_netlist a b =
  let n = Netlist.num_nets a in
  let nets = List.init n Fun.id in
  let structure net =
    let buf = Buffer.create 4096 in
    Netlist.add_structure buf net;
    Buffer.contents buf
  in
  n = Netlist.num_nets b
  && Netlist.num_gates a = Netlist.num_gates b
  && Netlist.pis a = Netlist.pis b
  && Netlist.pos a = Netlist.pos b
  && Netlist.num_pis a = Netlist.num_pis b
  && Netlist.num_pos a = Netlist.num_pos b
  && Netlist.depth a = Netlist.depth b
  && Netlist.topo_order a = Netlist.topo_order b
  && Netlist.fanin_csr a = Netlist.fanin_csr b
  && Netlist.fanin_offsets a = Netlist.fanin_offsets b
  && Netlist.fanout_csr a = Netlist.fanout_csr b
  && Netlist.fanout_offsets a = Netlist.fanout_offsets b
  && Netlist.kinds a = Netlist.kinds b
  && Netlist.level_array a = Netlist.level_array b
  && String.equal (structure a) (structure b)
  && List.for_all
       (fun i ->
         Netlist.kind a i = Netlist.kind b i
         && Netlist.fanin a i = Netlist.fanin b i
         && Netlist.level a i = Netlist.level b i
         && Netlist.is_pi a i = Netlist.is_pi b i
         && Netlist.is_po a i = Netlist.is_po b i
         && String.equal (Netlist.name a i) (Netlist.name b i)
         && Netlist.find b (Netlist.name a i) = Some i)
       nets

let prop_netlist_round_trip =
  QCheck.Test.make
    ~name:"netlist section round-trips every accessor (random and parsed .bench)" ~count:40
    QCheck.(quad (int_range 1 400) (int_range 2 12) (int_range 1 8) (int_range 0 10_000))
    (fun (gates, pis, pos, seed) ->
      let net = Generators.random_logic ~gates ~pis ~pos ~seed in
      let parsed = Bench_io.parse_string (Bench_io.to_string net) in
      List.for_all
        (fun net ->
          let b = encode net in
          match
            Netlist.decode ~source:"probe" (Bigstring.of_bytes b) ~off:0 ~len:(Bytes.length b)
          with
          | Some back -> same_netlist net back && Netlist.source back = "probe"
          | None -> false)
        [ net; parsed; Generators.c17 () ])

(* The section as its int words (everything before the names) and the
   names, and back: a mutation edits either and re-encoding keeps the
   counts and name offsets consistent, so only the check aimed at the
   mutation can refuse it. *)
type parts = { words : int array; names : string array }

let parts_of b =
  let n = Int64.to_int (Bytes.get_int64_le b 0) in
  let names_len = Int64.to_int (Bytes.get_int64_le b 24) in
  let nwords = (Bytes.length b - names_len) / 8 in
  let words = Array.init nwords (fun i -> Int64.to_int (Bytes.get_int64_le b (8 * i))) in
  let name_off = nwords - (n + 1) in
  let blob = Bytes.length b - names_len in
  {
    words;
    names =
      Array.init n (fun i ->
          Bytes.sub_string b (blob + words.(name_off + i))
            (words.(name_off + i + 1) - words.(name_off + i)));
  }

let bytes_of p =
  let n = p.words.(0) in
  let words = Array.copy p.words in
  let name_off = Array.length words - (n + 1) in
  let total = ref 0 in
  Array.iteri
    (fun i s ->
      words.(name_off + i) <- !total;
      total := !total + String.length s)
    p.names;
  words.(name_off + n) <- !total;
  words.(3) <- !total;
  let buf = Buffer.create 4096 in
  Array.iter (fun v -> Buffer.add_int64_le buf (Int64.of_int v)) words;
  Array.iter (Buffer.add_string buf) p.names;
  Buffer.to_bytes buf

(* Offsets of the word arrays, per [Netlist.encode]'s layout. *)
let codes_at = 4
let fanin_off_at p = 4 + p.words.(0)
let csr_at p = fanin_off_at p + p.words.(0) + 1
let pos_at p = csr_at p + p.words.(2)

(* A gate with exactly two fanins, and its fanin slice. *)
let two_input_gate p =
  let n = p.words.(0) in
  let rec go i =
    if i >= n then Alcotest.fail "no two-input gate"
    else
      let lo = p.words.(fanin_off_at p + i) and hi = p.words.(fanin_off_at p + i + 1) in
      if hi - lo = 2 then (i, lo) else go (i + 1)
  in
  go 0

let mutations =
  [
    ( "fanin out of range",
      fun p ->
        let _, lo = two_input_gate p in
        p.words.(csr_at p + lo) <- p.words.(0);
        p );
    ( "cycle (level-order violation)",
      fun p ->
        let g, lo = two_input_gate p in
        p.words.(csr_at p + lo) <- g;
        p );
    ( "arity mismatch",
      fun p ->
        let g, _ = two_input_gate p in
        (* 4 is NOT's opcode in the image: one fanin where there are two. *)
        p.words.(codes_at + g) <- 4;
        p );
    ( "unknown opcode",
      fun p ->
        p.words.(codes_at) <- 11;
        p );
    ( "duplicate name",
      fun p ->
        p.names.(1) <- p.names.(0);
        p );
    ( "PO listed twice",
      fun p ->
        p.words.(pos_at p + 1) <- p.words.(pos_at p);
        p );
  ]

let test_mutated_sections () =
  Counted.run @@ fun counter_value ->
  let net = Generators.random_logic ~gates:60 ~pis:6 ~pos:4 ~seed:3 in
  let pats = Pattern.random (Rng.create 3) ~npis:6 ~count:16 in
  let good = encode net in
  Alcotest.(check bool) "re-encoded parts decode" true
    (decode (bytes_of (parts_of good)) <> None);
  Temp_dir.with_dir @@ fun dir ->
  let path = Store_file.path ~dir ~source:(Netlist.source net) in
  let key = Store_file.key net pats in
  Alcotest.(check bool) "image saved" true
    (Store_file.save ~path ~key net pats ~signatures:None);
  List.iter
    (fun (name, mutate) ->
      let bad = bytes_of (mutate (parts_of good)) in
      Alcotest.(check bool) (name ^ ": decode refuses") true (decode bad = None);
      Image_edit.write path
        (Image_edit.reseal_section (Image_edit.read path) Store_file.netlist_section
           (fun (ints, _) -> (ints, bad)));
      let rejects0 = counter_value "store.rejects" in
      Alcotest.(check bool)
        (name ^ ": image refused")
        true
        (Store_file.load ~path ~key Store_file.decode_netlist = None);
      Alcotest.(check int) (name ^ ": store.rejects bumped") (rejects0 + 1)
        (counter_value "store.rejects"))
    mutations;
  (* Garbage of every short length, and a section claiming more nets
     than it has bytes, decode to [None] without an exception. *)
  for len = 0 to 64 do
    Alcotest.(check bool) "short garbage" true (decode (Bytes.make len '\255') = None)
  done;
  let huge = Bytes.copy good in
  Bytes.set_int64_le huge 0 Int64.max_int;
  Alcotest.(check bool) "huge count" true (decode huge = None)

(* --- The mapping contract ------------------------------------------- *)

(* A session that adopted a mapped image ([Design.session]) keeps
   diagnosing right while the file under it is replaced twice —
   [Sig_cache.save_frozen] writes a temp file and renames it, so the
   mapping keeps the old inode whole.  The adopted image holds only the
   rows one die needed, so the second die misses: its rows go through
   the first append to a mapped slab, which copies it.  Both reports
   must be byte-identical to a fresh lazy session's, and a later load
   sees the re-saved image. *)
let test_resave_under_mapping () =
  Counted.run @@ fun counter_value ->
  let net = Generators.random_logic ~gates:200 ~pis:12 ~pos:8 ~seed:11 in
  let pats = Pattern.random (Rng.create 11) ~npis:12 ~count:128 in
  let expected = Logic_sim.responses net pats in
  let die seed =
    let rng = Rng.create seed in
    let rec draw () =
      let defects = Injection.random_defects rng net Injection.default_mix 2 in
      let dlog =
        Datalog.of_responses ~expected
          ~observed:(Injection.observed_responses net pats defects)
      in
      if Datalog.num_failing dlog = 0 then draw () else dlog
    in
    draw ()
  in
  let first = die 1 and second = die 2 in
  let render session dlog = Report.render net (Noassume.diagnose_session session dlog) in
  let lazy_session () = Session.create net pats in
  let cache session = Option.get (Session.cache session) in
  Temp_dir.with_dir @@ fun dir ->
  let partial = lazy_session () in
  ignore (render partial first : string);
  Alcotest.(check bool) "partial image saved" true
    (Sig_cache.save_frozen ~dir (cache partial));
  let loads0 = counter_value "store.loads" in
  Temp_dir.with_dir @@ fun files ->
  let patterns = Filename.concat files "patterns.txt" in
  Out_channel.with_open_bin patterns (fun oc -> output_string oc (Pattern.to_text pats));
  let stored () =
    Result.get_ok
      (Design.session ~store_dir:dir (Design.Built net) ~patterns:(Some patterns))
  in
  let mapped = stored () in
  Alcotest.(check int) "image adopted" (loads0 + 1) (counter_value "store.loads");
  let adopted = Sig_cache.frozen_bytes (cache mapped) in
  Alcotest.(check int) "adopted arena = saved arena"
    (Sig_cache.frozen_bytes (cache partial))
    adopted;
  let full = lazy_session () in
  ignore (Session.prewarm full : int);
  Alcotest.(check bool) "re-saved, same signatures" true
    (Sig_cache.save_frozen ~dir (cache partial));
  Alcotest.(check bool) "re-saved, extra signatures" true
    (Sig_cache.save_frozen ~dir (cache full));
  List.iter
    (fun (name, dlog) ->
      Alcotest.(check string) (name ^ ": report = fresh lazy session's")
        (render (lazy_session ()) dlog) (render mapped dlog))
    [ ("first die", first); ("second die", second) ];
  Alcotest.(check bool) "second die's rows appended" true
    (Sig_cache.frozen_bytes (cache mapped) > adopted);
  let reloaded = stored () in
  Alcotest.(check int) "later load sees the re-saved image"
    (Sig_cache.frozen_bytes (cache full))
    (Sig_cache.frozen_bytes (cache reloaded))

(* The bytes [Sig_cache.save_frozen] writes for c17 and its ATPG set,
   with no signature section and after a prewarm, pinned.  The image
   carries the netlist's opcode numbering, the pattern rows and the
   arena as they are laid out on disk: a change to these bytes must
   bump [Store_file.version], or an image an older build wrote is read
   with the new layout. *)
let test_image_bytes_pinned () =
  let net = Generators.c17 () in
  let pats = (Tpg.generate net).Tpg.patterns in
  let session = Session.create net pats in
  let cache = Option.get (Session.cache session) in
  Temp_dir.with_dir @@ fun dir ->
  let md5 () =
    Alcotest.(check bool) "saved" true (Sig_cache.save_frozen ~dir cache);
    Digest.to_hex (Digest.file (Store_file.path ~dir ~source:(Netlist.source net)))
  in
  Alcotest.(check string)
    "no signature section" "1e14997d0523a6f9f29bdae8a81566b1" (md5 ());
  ignore (Session.prewarm session : int);
  Alcotest.(check string) "after prewarm" "601048108684c60754a0822d75788a8d" (md5 ())

let suite =
  [
    ( "image_contract",
      [
        Alcotest.test_case "re-saved twice under a live mapping" `Quick
          test_resave_under_mapping;
      ] );
    ( "store_file",
      [
        Alcotest.test_case "pristine image loads" `Quick test_pristine_loads;
        Alcotest.test_case "every sampled bit flip rejected" `Quick test_bit_flips;
        Alcotest.test_case "every truncation rejected" `Quick test_truncations;
        Alcotest.test_case "swapped unequal words rejected" `Quick test_word_swaps;
        QCheck_alcotest.to_alcotest prop_checksum_matches_definition;
        QCheck_alcotest.to_alcotest prop_netlist_round_trip;
        Alcotest.test_case "mutated netlist sections refused, never raised" `Quick
          test_mutated_sections;
        Alcotest.test_case "image bytes pinned" `Quick test_image_bytes_pinned;
      ] );
  ]

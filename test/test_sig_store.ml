(* Disk-snapshot robustness for the packed signature store, the
   signature section of the design image ([Store_file]).  The contract
   under test (Sig_cache mli, "Disk snapshots"): a loaded arena either
   reproduces the live sweep byte for byte or the file is rejected —
   bumping ["store.rejects"] — and the instance is left clean for the
   caller's live-prewarm fallback.  Every corruption a deployment can
   plausibly produce is exercised: truncation, a flipped header byte, a
   flipped body byte, an image for another netlist, an image for
   another pattern set, and a stale encode version.  A qcheck property
   drives the varint codec itself through store -> find and through a
   full save/load cycle with adversarial triple values (negative words,
   max_int, non-canonical order).  The
   arena is append-only and shared across domains, so concurrent
   appends and the order keys arrive in must change neither a decoded
   row nor a saved byte. *)

let problem =
  lazy
    (let net = Generators.c17 () in
     let rng = Rng.create 7 in
     let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:64 in
     (net, pats))

(* A fresh, empty instance for the problem: each test populates its own
   cache. *)
let fresh_instance () =
  let net, pats = Lazy.force problem in
  (Sig_cache.create net pats, net, pats)

(* Populate the arena with real signatures — one per collapsed fault,
   the keys [Session.prewarm] would sweep. *)
let populate c net pats =
  let sim = Reference.scalar net and good = Reference.good net pats in
  let faults = Fault_list.representatives (Fault_list.collapse net) in
  List.iter
    (fun (f : Fault_list.fault) ->
      ignore
        (Reference.lookup c sim good ~site:f.Fault_list.site ~stuck:f.Fault_list.stuck
          : int array))
    faults;
  faults

(* The design image [Sig_cache.save_frozen] writes for [net] under
   [dir]: named by the netlist's source alone. *)
let image_path ~dir net = Store_file.path ~dir ~source:(Netlist.source net)

(* Save a populated arena, load it into a fresh instance, and compare
   every key's decode — plus the save/load counter deltas. *)
let test_round_trip () =
  Counted.run @@ fun counter_value ->
  let saves0 = counter_value "store.saves" and loads0 = counter_value "store.loads" in
  let c1, net, pats = fresh_instance () in
  ignore (populate c1 net pats : Fault_list.fault list);
  Temp_dir.with_dir @@ fun dir ->
  Alcotest.(check bool) "save succeeds" true (Sig_cache.save_frozen ~dir c1);
  Alcotest.(check int) "store.saves bumped" (saves0 + 1) (counter_value "store.saves");
  let c2 = Sig_cache.create net pats in
  Alcotest.(check bool) "load succeeds" true (Sig_cache.load_frozen ~dir c2);
  Alcotest.(check int) "store.loads bumped" (loads0 + 1) (counter_value "store.loads");
  Alcotest.(check bool) "loaded arena is non-empty" true (Sig_cache.frozen_bytes c2 > 0);
  Alcotest.(check int) "identical arena footprint" (Sig_cache.frozen_bytes c1)
    (Sig_cache.frozen_bytes c2);
  for k = 0 to (2 * Netlist.num_nets net) - 1 do
    let a = Reference.cached c1 k and b = Reference.cached c2 k in
    Alcotest.(check bool)
      (Printf.sprintf "key %d decodes identically" k)
      true
      (match (a, b) with
      | None, None -> true
      | Some x, Some y -> x = y
      | _ -> false)
  done

(* A key stored with zero triples (a fault that diffs nowhere) must
   survive the round trip as [Some [||]], never collapse to [None] —
   the presence bitmap exists precisely for this case. *)
let test_empty_signature_round_trip () =
  let c1, net, pats = fresh_instance () in
  Sig_cache.store c1 [| 0 |] [| [||] |];
  Alcotest.(check bool) "find = Some [||]" true (Reference.cached c1 0 = Some [||]);
  Alcotest.(check bool) "absent key stays None" true (Reference.cached c1 2 = None);
  Temp_dir.with_dir @@ fun dir ->
  Alcotest.(check bool) "save succeeds" true (Sig_cache.save_frozen ~dir c1);
  let c2 = Sig_cache.create net pats in
  Alcotest.(check bool) "load succeeds" true (Sig_cache.load_frozen ~dir c2);
  Alcotest.(check bool) "loaded find = Some [||]" true (Reference.cached c2 0 = Some [||]);
  Alcotest.(check bool) "loaded absent key stays None" true (Reference.cached c2 2 = None)

(* One rejection scenario: corrupt the snapshot with [mangle], then
   check the load is refused, ["store.rejects"] is bumped, the
   instance is still cold, and a live prewarm + save recovers — the
   fallback path a session actually takes. *)
let reject_case name mangle () =
  Counted.run @@ fun counter_value ->
  let c1, net, pats = fresh_instance () in
  ignore (populate c1 net pats : Fault_list.fault list);
  Temp_dir.with_dir @@ fun dir ->
  Alcotest.(check bool) "seed save succeeds" true (Sig_cache.save_frozen ~dir c1);
  let path = image_path ~dir net in
  let raw = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      output_bytes oc (mangle (Bytes.of_string raw)));
  let c2 = Sig_cache.create net pats in
  let rejects0 = counter_value "store.rejects" in
  Alcotest.(check bool) (name ^ ": load refused") false (Sig_cache.load_frozen ~dir c2);
  Alcotest.(check int)
    (name ^ ": store.rejects bumped")
    (rejects0 + 1)
    (counter_value "store.rejects");
  Alcotest.(check bool) (name ^ ": instance left cold") true (Sig_cache.frozen_bytes c2 = 0);
  (* Clean fallback: the rejected instance prewarms and re-saves as if
     the file had never existed. *)
  ignore (populate c2 net pats : Fault_list.fault list);
  Alcotest.(check bool) (name ^ ": fallback fill") true (Sig_cache.frozen_bytes c2 > 0);
  Alcotest.(check bool) (name ^ ": overwrite save") true (Sig_cache.save_frozen ~dir c2);
  let c3 = Sig_cache.create net pats in
  Alcotest.(check bool) (name ^ ": reload after overwrite") true
    (Sig_cache.load_frozen ~dir c3)

let flip b i =
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  b

let truncated b = Bytes.sub b 0 (Bytes.length b / 2)
let flipped_magic b = flip b 0
let stale_version b = flip b 8 (* the encode-version int64's low byte *)
let flipped_header_digest b = flip b 20 (* inside the key *)
let flipped_body b = flip b (Bytes.length b - 3) (* in the slab, checksum land *)

(* The signature section's per-key byte lengths, presence bitmap and
   slab. *)
let read_uvarint b pos =
  let v = ref 0 and shift = ref 0 and cont = ref true in
  while !cont do
    let c = Char.code (Bytes.get b !pos) in
    incr pos;
    v := !v lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7;
    cont := c land 0x80 <> 0
  done;
  !v

let add_uvarint buf v =
  let v = ref v in
  while !v lsr 7 <> 0 do
    Buffer.add_char buf (Char.chr (!v land 0x7f lor 0x80));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v)

let split_snapshot b =
  let sections = (Image_edit.split b).Image_edit.sections in
  let ints, sec = sections.(Store_file.signatures_section) in
  let nkeys = ints.(0) and index_len = ints.(1) and slab_len = ints.(2) in
  let pos = ref 0 in
  let lens = Array.init nkeys (fun _ -> read_uvarint sec pos) in
  let bitmap_len = (nkeys + 7) / 8 in
  ( lens,
    Bytes.sub sec index_len bitmap_len,
    Bytes.sub sec (index_len + bitmap_len) slab_len )

(* Reassemble an image from an edited signature section, with its
   [index_len], [slab_len] and the checksum recomputed to match: every
   envelope check passes, so only the section's own checks can refuse
   it. *)
let reseal b ~lens ~bitmap ~slab =
  Image_edit.reseal_section b Store_file.signatures_section (fun (ints, _) ->
      let body = Buffer.create (Bytes.length b) in
      Array.iter (add_uvarint body) lens;
      let index_len = Buffer.length body in
      Buffer.add_bytes body bitmap;
      Buffer.add_bytes body slab;
      ([| ints.(0); index_len; Bytes.length slab |], Buffer.to_bytes body))

(* A consistent forgery only the structural walk can catch: drop the
   final byte of the last non-empty key's range — the tail of its last
   diff word — and shorten that key's index entry and [slab_len] to
   match.  Table, checksum and offsets all agree; the key's triples no
   longer fill its range. *)
let truncated_word b =
  let lens, bitmap, slab = split_snapshot b in
  let last = ref (Array.length lens - 1) in
  while lens.(!last) = 0 do
    decr last
  done;
  let lens = Array.copy lens in
  lens.(!last) <- lens.(!last) - 1;
  (* Every key after [last] is empty, so [last]'s range ends the
     slab. *)
  reseal b ~lens ~bitmap ~slab:(Bytes.sub slab 0 (Bytes.length slab - 1))

(* An image saved for a different netlist, byte-copied onto this
   problem's path (the path is source-keyed, so only a copy can put a
   foreign arena there): the key must refuse it. *)
let test_foreign_netlist_rejected () =
  Counted.run @@ fun counter_value ->
  let other_net = Generators.ripple_adder 4 in
  let other_pats =
    Pattern.random (Rng.create 11) ~npis:(Netlist.num_pis other_net) ~count:64
  in
  let other = Sig_cache.create other_net other_pats in
  ignore (populate other other_net other_pats : Fault_list.fault list);
  Temp_dir.with_dir @@ fun dir ->
  Alcotest.(check bool) "foreign save succeeds" true (Sig_cache.save_frozen ~dir other);
  let foreign_path = image_path ~dir other_net in
  let c, net, _ = fresh_instance () in
  let path = image_path ~dir net in
  let raw = In_channel.with_open_bin foreign_path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc -> output_string oc raw);
  let rejects0 = counter_value "store.rejects" in
  Alcotest.(check bool) "foreign netlist refused" false (Sig_cache.load_frozen ~dir c);
  Alcotest.(check int) "store.rejects bumped" (rejects0 + 1)
    (counter_value "store.rejects");
  Alcotest.(check bool) "instance left cold" true (Sig_cache.frozen_bytes c = 0)

(* Same netlist, different pattern set: the file is found (the path
   only keys on the netlist's source, by design) but the header's key
   covers the patterns' origin and must refuse; the next save
   overwrites it rather than adding a sibling. *)
let test_foreign_patterns_rejected () =
  Counted.run @@ fun counter_value ->
  let net, pats = Lazy.force problem in
  let c1 = Sig_cache.create net pats in
  ignore (populate c1 net pats : Fault_list.fault list);
  Temp_dir.with_dir @@ fun dir ->
  Alcotest.(check bool) "seed save succeeds" true (Sig_cache.save_frozen ~dir c1);
  let other_pats = Pattern.random (Rng.create 8) ~npis:(Netlist.num_pis net) ~count:64 in
  let c2 = Sig_cache.create net other_pats in
  let rejects0 = counter_value "store.rejects" in
  Alcotest.(check bool) "foreign patterns refused" false (Sig_cache.load_frozen ~dir c2);
  Alcotest.(check int) "store.rejects bumped" (rejects0 + 1)
    (counter_value "store.rejects");
  Alcotest.(check bool) "instance left cold" true (Sig_cache.frozen_bytes c2 = 0);
  Alcotest.(check bool) "overwrite save" true (Sig_cache.save_frozen ~dir c2);
  Alcotest.(check (array string))
    "same structure, same path"
    [| Filename.basename (image_path ~dir net) |]
    (Sys.readdir dir)

(* A missing file is a cold fleet, not a rejection. *)
let test_missing_file_not_a_reject () =
  Counted.run @@ fun counter_value ->
  let c, _, _ = fresh_instance () in
  Temp_dir.with_dir @@ fun dir ->
  let rejects0 = counter_value "store.rejects" in
  Alcotest.(check bool) "load from empty dir" false (Sig_cache.load_frozen ~dir c);
  Alcotest.(check int) "no reject counted" rejects0 (counter_value "store.rejects")

(* Codec round trip through the public API: arbitrary triples —
   non-canonical order, negative and extreme diff words — must survive
   store -> find and a full save/load cycle bit for bit.
   The adversarial tail is appended deterministically so min_int,
   max_int and negative words are exercised on every run. *)
let prop_codec_round_trip =
  QCheck.Test.make ~name:"packed codec round-trips adversarial triples (memory + disk)"
    ~count:30
    QCheck.(small_list (triple (int_range 0 12) (int_range 0 40) int))
    (fun trips ->
      let adversarial = [ (0, 0, max_int); (5, 1, min_int); (3, 39, -1); (3, 0, 0) ] in
      let triples =
        List.concat_map (fun (bi, oi, w) -> [ bi; oi; w ]) (trips @ adversarial)
        |> Array.of_list
      in
      let c1, net, pats = fresh_instance () in
      Sig_cache.store c1 [| 0 |] [| triples |];
      let from_memory = Reference.cached c1 0 in
      Temp_dir.with_dir @@ fun dir ->
      let saved = Sig_cache.save_frozen ~dir c1 in
      let c2 = Sig_cache.create net pats in
      let loaded = Sig_cache.load_frozen ~dir c2 in
      let from_disk = Reference.cached c2 0 in
      saved && loaded && from_memory = Some triples && from_disk = Some triples)

(* Real rows for a circuit large enough that batches of a few keys
   interleave: every class representative's key with its scalar
   triples, in key order. *)
let reference_rows () =
  let net = Generators.random_logic ~gates:300 ~pis:10 ~pos:8 ~seed:5 in
  let pats = Pattern.random (Rng.create 5) ~npis:10 ~count:128 in
  let sim = Reference.scalar net and good = Reference.good net pats in
  let rows =
    List.map
      (fun (f : Fault_list.fault) ->
        ( Sig_cache.key ~site:f.site ~stuck:f.stuck,
          Reference.signature_triples sim good ~site:f.site ~stuck:f.stuck ))
      (Fault_list.representatives (Fault_list.collapse net))
    |> List.sort compare |> Array.of_list
  in
  (net, pats, rows)

(* Store the rows at the positions in [order], in that order, in
   batches of [size] keys. *)
let store_batches c rows order ~size =
  let n = Array.length order in
  let i = ref 0 in
  while !i < n do
    let batch = Array.sub order !i (min size (n - !i)) in
    Sig_cache.store c
      (Array.map (fun j -> fst rows.(j)) batch)
      (Array.map (fun j -> snd rows.(j)) batch);
    i := !i + size
  done

(* Four domains append overlapping key sets — each skips a different
   quarter and walks in its own order, in small batches, so appends
   race on the lock and on shared keys.  Afterwards every key is
   present and decodes to exactly its scalar triples. *)
let test_concurrent_appends () =
  let net, pats, rows = reference_rows () in
  let c = Sig_cache.create net pats in
  let n = Array.length rows in
  let workers =
    List.init 4 (fun d ->
        let order = List.filter (fun i -> i mod 4 <> d) (List.init n Fun.id) in
        let order = Array.of_list (if d mod 2 = 0 then order else List.rev order) in
        Domain.spawn (fun () -> store_batches c rows order ~size:(3 + d)))
  in
  List.iter Domain.join workers;
  Array.iter
    (fun (k, triples) ->
      Alcotest.(check (option (array int)))
        (Printf.sprintf "key %d decodes to its scalar triples" k)
        (Some triples) (Reference.cached c k))
    rows

(* The snapshot depends on which keys are present, never on the order
   they were appended in: one arena filled in key order by a single
   [store] and one filled in reverse order over several calls save
   byte-identical files, and both load. *)
let test_fill_order_independent () =
  let net, pats, rows = reference_rows () in
  let n = Array.length rows in
  let in_order = Sig_cache.create net pats in
  Sig_cache.store in_order (Array.map fst rows) (Array.map snd rows);
  let reversed = Sig_cache.create net pats in
  store_batches reversed rows (Array.init n (fun i -> n - 1 - i)) ~size:7;
  let save c =
    Temp_dir.with_dir @@ fun dir ->
    Alcotest.(check bool) "save succeeds" true (Sig_cache.save_frozen ~dir c);
    let raw = In_channel.with_open_bin (image_path ~dir net) In_channel.input_all in
    Alcotest.(check bool) "saved file loads" true
      (Sig_cache.load_frozen ~dir (Sig_cache.create net pats));
    raw
  in
  Alcotest.(check bool) "identical snapshot bytes" true
    (String.equal (save in_order) (save reversed))

(* A loaded arena keeps growing like a live one: load a snapshot of
   half the pool, append the other half, and the arena's footprint,
   every decoded row and the re-saved file equal those of an arena
   filled live with the whole pool. *)
let test_append_after_load () =
  let net, pats, rows = reference_rows () in
  let n = Array.length rows in
  let half = Array.sub rows 0 (n / 2) and rest = Array.sub rows (n / 2) (n - (n / 2)) in
  let c1 = Sig_cache.create net pats in
  Sig_cache.store c1 (Array.map fst half) (Array.map snd half);
  Temp_dir.with_dir @@ fun dir ->
  Alcotest.(check bool) "half saved" true (Sig_cache.save_frozen ~dir c1);
  let c2 = Sig_cache.create net pats in
  Alcotest.(check bool) "half loaded" true (Sig_cache.load_frozen ~dir c2);
  Sig_cache.store c2 (Array.map fst rest) (Array.map snd rest);
  let live = Sig_cache.create net pats in
  Sig_cache.store live (Array.map fst rows) (Array.map snd rows);
  Alcotest.(check int) "footprint" (Sig_cache.frozen_bytes live)
    (Sig_cache.frozen_bytes c2);
  Array.iter
    (fun (k, triples) ->
      Alcotest.(check (option (array int)))
        (Printf.sprintf "key %d" k)
        (Some triples) (Reference.cached c2 k))
    rows;
  let saved c =
    Temp_dir.with_dir @@ fun dir ->
    Alcotest.(check bool) "save succeeds" true (Sig_cache.save_frozen ~dir c);
    In_channel.with_open_bin (image_path ~dir net) In_channel.input_all
  in
  Alcotest.(check bool) "identical snapshot bytes" true
    (String.equal (saved live) (saved c2))

(* --- Resealed forgeries aimed at the structural walk ---------------- *)

(* Where each key's encoding starts in the slab. *)
let key_starts lens =
  let starts = Array.make (Array.length lens) 0 in
  for k = 1 to Array.length lens - 1 do
    starts.(k) <- starts.(k - 1) + lens.(k - 1)
  done;
  starts

(* The triples of the encoding at [start]: each one's offset in the
   slab and the byte widths of its block and PO deltas. *)
let triples_at slab start =
  let pos = ref start in
  let n = read_uvarint slab pos in
  Array.init n (fun _ ->
      let at = !pos in
      ignore (read_uvarint slab pos : int);
      let dblock = !pos - at in
      ignore (read_uvarint slab pos : int);
      let dpo = !pos - at - dblock in
      pos := !pos + 8;
      (at, dblock, dpo))

let last_present lens =
  let k = ref (Array.length lens - 1) in
  while lens.(!k) = 0 do
    decr k
  done;
  !k

(* Set the continuation bit of the PO delta in the last triple of the
   last non-empty key.  The delta then runs into the diff word, and the
   word into the end of the range. *)
let continuation_in_last_triple b =
  let lens, bitmap, slab = split_snapshot b in
  let k = last_present lens in
  let triples = triples_at slab (key_starts lens).(k) in
  let at, dblock, dpo = triples.(Array.length triples - 1) in
  Alcotest.(check (pair int int)) "last triple has one-byte deltas" (1, 1) (dblock, dpo);
  Bytes.set slab (at + 1) (Char.chr (Char.code (Bytes.get slab (at + 1)) lor 0x80));
  reseal b ~lens ~bitmap ~slab

(* Cut the last key holding a two-byte delta so that its range ends
   after the delta's first byte, and shorten its index entry to match:
   the following keys' ranges are untouched. *)
let truncated_in_two_byte_delta b =
  let lens, bitmap, slab = split_snapshot b in
  let starts = key_starts lens in
  let cut = ref None in
  Array.iteri
    (fun k len ->
      if len > 0 then
        Array.iter
          (fun (at, dblock, dpo) ->
            if dblock = 2 then cut := Some (k, at + 1)
            else if dpo = 2 then cut := Some (k, at + dblock + 1))
          (triples_at slab starts.(k)))
    lens;
  let k, cut =
    match !cut with
    | Some c -> c
    | None -> Alcotest.fail "no two-byte delta in the snapshot"
  in
  let rest = starts.(k) + lens.(k) in
  let lens = Array.copy lens in
  lens.(k) <- cut - starts.(k);
  let slab =
    Bytes.cat (Bytes.sub slab 0 cut) (Bytes.sub slab rest (Bytes.length slab - rest))
  in
  reseal b ~lens ~bitmap ~slab

(* rnd2k (363 POs) over two blocks, every key of both polarities
   stored with its scalar triples and saved: PO deltas past 63 take two
   bytes, so the walk's slow path runs on real data. *)
let rnd2k_snapshot =
  lazy
    (let net = Option.get (Generators.find_suite "rnd2k") in
     let pats = Pattern.random (Rng.create 12) ~npis:(Netlist.num_pis net) ~count:128 in
     let c = Sig_cache.create net pats in
     let sim = Reference.scalar net and good = Reference.good net pats in
     let rows =
       Array.init
         (2 * Netlist.num_nets net)
         (fun k ->
           Reference.signature_triples sim good ~site:(k / 2) ~stuck:(k land 1 = 1))
     in
     Sig_cache.store c (Array.init (Array.length rows) Fun.id) rows;
     let raw =
       Temp_dir.with_dir @@ fun dir ->
       if not (Sig_cache.save_frozen ~dir c) then failwith "rnd2k snapshot save failed";
       In_channel.with_open_bin (image_path ~dir net) In_channel.input_all
     in
     (net, pats, rows, raw))

let test_two_byte_deltas_load () =
  let net, pats, rows, raw = Lazy.force rnd2k_snapshot in
  Alcotest.(check int) "rnd2k POs" 363 (Netlist.num_pos net);
  let lens, _, slab = split_snapshot (Bytes.of_string raw) in
  let starts = key_starts lens in
  let two_byte = ref 0 in
  Array.iteri
    (fun k len ->
      if len > 0 then
        Array.iter
          (fun (_, _, dpo) -> if dpo = 2 then incr two_byte)
          (triples_at slab starts.(k)))
    lens;
  Alcotest.(check bool) "some PO delta takes two bytes" true (!two_byte > 0);
  Temp_dir.with_dir @@ fun dir ->
  Out_channel.with_open_bin (image_path ~dir net) (fun oc -> output_string oc raw);
  let c = Sig_cache.create net pats in
  Alcotest.(check bool) "load succeeds" true (Sig_cache.load_frozen ~dir c);
  Array.iteri
    (fun k triples ->
      Alcotest.(check (option (array int)))
        (Printf.sprintf "key %d finds its scalar triples" k)
        (Some triples) (Reference.cached c k))
    rows

(* [reject_case] on the rnd2k snapshot, without the fallback fill. *)
let reject_rnd2k name mangle () =
  Counted.run @@ fun counter_value ->
  let net, pats, _, raw = Lazy.force rnd2k_snapshot in
  Temp_dir.with_dir @@ fun dir ->
  let c = Sig_cache.create net pats in
  let oc = open_out_bin (image_path ~dir net) in
  output_bytes oc (mangle (Bytes.of_string raw));
  close_out oc;
  let rejects0 = counter_value "store.rejects" in
  Alcotest.(check bool) (name ^ ": load refused") false (Sig_cache.load_frozen ~dir c);
  Alcotest.(check int)
    (name ^ ": store.rejects bumped")
    (rejects0 + 1)
    (counter_value "store.rejects");
  Alcotest.(check bool)
    (name ^ ": instance left cold")
    true
    (Sig_cache.frozen_bytes c = 0)

let suite =
  [
    ( "sig_store",
      [
        Alcotest.test_case "save/load round trip (all keys identical)" `Quick
          test_round_trip;
        Alcotest.test_case "zero-triple signature survives round trip" `Quick
          test_empty_signature_round_trip;
        Alcotest.test_case "truncated file rejected" `Quick
          (reject_case "truncated" truncated);
        Alcotest.test_case "flipped magic byte rejected" `Quick
          (reject_case "magic" flipped_magic);
        Alcotest.test_case "stale encode version rejected" `Quick
          (reject_case "version" stale_version);
        Alcotest.test_case "flipped header digest byte rejected" `Quick
          (reject_case "header digest" flipped_header_digest);
        Alcotest.test_case "flipped body byte rejected" `Quick
          (reject_case "body" flipped_body);
        Alcotest.test_case "truncated diff word rejected" `Quick
          (reject_case "truncated word" truncated_word);
        Alcotest.test_case "snapshot for another netlist rejected" `Quick
          test_foreign_netlist_rejected;
        Alcotest.test_case "snapshot for another pattern set rejected" `Quick
          test_foreign_patterns_rejected;
        Alcotest.test_case "missing file is cold, not a reject" `Quick
          test_missing_file_not_a_reject;
      ]
      @ List.map QCheck_alcotest.to_alcotest [ prop_codec_round_trip ]
      @ [
          Alcotest.test_case "concurrent appends decode to scalar triples" `Quick
            test_concurrent_appends;
          Alcotest.test_case "snapshot bytes independent of fill order" `Quick
            test_fill_order_independent;
          Alcotest.test_case "loaded arena appends and re-saves like a live one" `Quick
            test_append_after_load;
          Alcotest.test_case "resealed continuation byte in last triple rejected" `Quick
            (reject_case "continuation byte" continuation_in_last_triple);
          Alcotest.test_case "resealed cut inside a two-byte delta rejected" `Quick
            (reject_rnd2k "two-byte delta cut" truncated_in_two_byte_delta);
          Alcotest.test_case "two-byte PO deltas load and decode (rnd2k)" `Quick
            test_two_byte_deltas_load;
        ] );
  ]

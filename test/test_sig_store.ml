(* Disk-snapshot robustness for the packed signature store.  The
   contract under test (Sig_cache mli, "Disk snapshots"): a loaded
   arena either reproduces the live sweep byte for byte or the file is
   rejected — bumping ["store.rejects"] — and the instance is left
   clean for the caller's live-prewarm fallback.  Every corruption a
   deployment can plausibly produce is exercised: truncation, a
   flipped header byte, a flipped body byte, a snapshot for another
   netlist, a snapshot for another pattern set, and a stale encode
   version.  A qcheck property drives the varint codec itself through
   store -> freeze -> find and through a full save/load cycle with
   adversarial triple values (negative words, max_int, non-canonical
   order). *)

let tmpdir () =
  let f = Filename.temp_file "mddstore" "" in
  Sys.remove f;
  Unix.mkdir f 0o755;
  f

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

(* Populate the mutable tier with real signatures — one per collapsed
   fault — and freeze, exactly as [Session.prewarm] would. *)
let populate_and_freeze c net =
  let sim = Fault_sim.create net in
  let faults = Fault_list.representatives (Fault_list.collapse net) in
  List.iter
    (fun (f : Fault_list.fault) ->
      ignore
        (Reference.lookup c sim ~site:f.Fault_list.site ~stuck:f.Fault_list.stuck
          : int array))
    faults;
  Sig_cache.freeze c;
  faults

let counter_value name = Obs.value (Obs.counter name)

(* Save a populated arena, load it into a fresh instance, and compare
   every key's decode — plus the save/load counter deltas. *)
let test_round_trip () =
  Obs.enable ();
  let saves0 = counter_value "store.saves" and loads0 = counter_value "store.loads" in
  let c1, net, pats = fresh_instance () in
  ignore (populate_and_freeze c1 net : Fault_list.fault list);
  let dir = tmpdir () in
  Alcotest.(check bool) "save succeeds" true (Sig_cache.save_frozen ~dir c1);
  Alcotest.(check int) "store.saves bumped" (saves0 + 1) (counter_value "store.saves");
  let c2 = Sig_cache.create net pats in
  Alcotest.(check bool) "load succeeds" true (Sig_cache.load_frozen ~dir c2);
  Alcotest.(check int) "store.loads bumped" (loads0 + 1) (counter_value "store.loads");
  Alcotest.(check bool) "loaded instance is frozen" true (Sig_cache.is_frozen c2);
  Alcotest.(check int) "identical arena footprint" (Sig_cache.frozen_bytes c1)
    (Sig_cache.frozen_bytes c2);
  for k = 0 to (2 * Netlist.num_nets net) - 1 do
    let a = Sig_cache.find c1 k and b = Sig_cache.find c2 k in
    Alcotest.(check bool)
      (Printf.sprintf "key %d decodes identically" k)
      true
      (match (a, b) with
      | None, None -> true
      | Some x, Some y -> x = y
      | _ -> false)
  done;
  Obs.disable ()

(* A key stored with zero triples (a fault that diffs nowhere) must
   survive the round trip as [Some [||]], never collapse to [None] —
   the presence bitmap exists precisely for this case. *)
let test_empty_signature_round_trip () =
  let c1, net, pats = fresh_instance () in
  Sig_cache.store c1 0 [||];
  Sig_cache.freeze c1;
  Alcotest.(check bool) "frozen find = Some [||]" true (Sig_cache.find c1 0 = Some [||]);
  Alcotest.(check bool) "absent key stays None" true (Sig_cache.find c1 2 = None);
  let dir = tmpdir () in
  Alcotest.(check bool) "save succeeds" true (Sig_cache.save_frozen ~dir c1);
  let c2 = Sig_cache.create net pats in
  Alcotest.(check bool) "load succeeds" true (Sig_cache.load_frozen ~dir c2);
  Alcotest.(check bool) "loaded find = Some [||]" true (Sig_cache.find c2 0 = Some [||]);
  Alcotest.(check bool) "loaded absent key stays None" true (Sig_cache.find c2 2 = None)

(* One rejection scenario: corrupt the snapshot with [mangle], then
   check the load is refused, ["store.rejects"] is bumped, the
   instance is still cold, and a live prewarm + save recovers — the
   fallback path a session actually takes. *)
let reject_case name mangle () =
  Obs.enable ();
  let c1, net, pats = fresh_instance () in
  ignore (populate_and_freeze c1 net : Fault_list.fault list);
  let dir = tmpdir () in
  Alcotest.(check bool) "seed save succeeds" true (Sig_cache.save_frozen ~dir c1);
  let path = Sig_cache.store_path ~dir c1 in
  let raw =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin path in
  output_bytes oc (mangle (Bytes.of_string raw));
  close_out oc;
  let c2 = Sig_cache.create net pats in
  let rejects0 = counter_value "store.rejects" in
  Alcotest.(check bool) (name ^ ": load refused") false (Sig_cache.load_frozen ~dir c2);
  Alcotest.(check int)
    (name ^ ": store.rejects bumped")
    (rejects0 + 1)
    (counter_value "store.rejects");
  Alcotest.(check bool) (name ^ ": instance left cold") false (Sig_cache.is_frozen c2);
  (* Clean fallback: the rejected instance prewarms and re-saves as if
     the file had never existed. *)
  ignore (populate_and_freeze c2 net : Fault_list.fault list);
  Alcotest.(check bool) (name ^ ": fallback freeze") true (Sig_cache.is_frozen c2);
  Alcotest.(check bool) (name ^ ": overwrite save") true (Sig_cache.save_frozen ~dir c2);
  let c3 = Sig_cache.create net pats in
  Alcotest.(check bool) (name ^ ": reload after overwrite") true
    (Sig_cache.load_frozen ~dir c3);
  Obs.disable ()

let flip b i =
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  b

let truncated b = Bytes.sub b 0 (Bytes.length b / 2)
let flipped_magic b = flip b 0
let stale_version b = flip b 8 (* the encode-version int64's low byte *)
let flipped_header_digest b = flip b 20 (* inside the problem digest *)
let flipped_body b = flip b (Bytes.length b - 3) (* in the slab, content-digest land *)

(* A snapshot saved for a different netlist, byte-copied onto this
   problem's path (the path is structure-keyed, so only a copy can put
   a foreign arena there): the problem digest must refuse it. *)
let test_foreign_netlist_rejected () =
  Obs.enable ();
  let other_net = Generators.ripple_adder 4 in
  let other_pats =
    Pattern.random (Rng.create 11) ~npis:(Netlist.num_pis other_net) ~count:64
  in
  let other = Sig_cache.create other_net other_pats in
  ignore (populate_and_freeze other other_net : Fault_list.fault list);
  let dir = tmpdir () in
  Alcotest.(check bool) "foreign save succeeds" true (Sig_cache.save_frozen ~dir other);
  let foreign_path = Sig_cache.store_path ~dir other in
  let c, net, pats = fresh_instance () in
  ignore pats;
  ignore net;
  let path = Sig_cache.store_path ~dir c in
  let raw =
    let ic = open_in_bin foreign_path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin path in
  output_string oc raw;
  close_out oc;
  let rejects0 = counter_value "store.rejects" in
  Alcotest.(check bool) "foreign netlist refused" false (Sig_cache.load_frozen ~dir c);
  Alcotest.(check int) "store.rejects bumped" (rejects0 + 1)
    (counter_value "store.rejects");
  Alcotest.(check bool) "instance left cold" false (Sig_cache.is_frozen c);
  Obs.disable ()

(* Same structure, different pattern set: the file is found (the path
   only keys on netlist structure, by design — see [store_path]) but
   the header's problem digest covers the patterns and must refuse. *)
let test_foreign_patterns_rejected () =
  Obs.enable ();
  let net, pats = Lazy.force problem in
  let c1 = Sig_cache.create net pats in
  ignore (populate_and_freeze c1 net : Fault_list.fault list);
  let dir = tmpdir () in
  Alcotest.(check bool) "seed save succeeds" true (Sig_cache.save_frozen ~dir c1);
  let other_pats = Pattern.random (Rng.create 8) ~npis:(Netlist.num_pis net) ~count:64 in
  let c2 = Sig_cache.create net other_pats in
  Alcotest.(check string)
    "same structure, same path"
    (Sig_cache.store_path ~dir c1)
    (Sig_cache.store_path ~dir c2);
  let rejects0 = counter_value "store.rejects" in
  Alcotest.(check bool) "foreign patterns refused" false (Sig_cache.load_frozen ~dir c2);
  Alcotest.(check int) "store.rejects bumped" (rejects0 + 1)
    (counter_value "store.rejects");
  Alcotest.(check bool) "instance left cold" false (Sig_cache.is_frozen c2);
  Obs.disable ()

(* A missing file is a cold fleet, not a rejection. *)
let test_missing_file_not_a_reject () =
  Obs.enable ();
  let c, _, _ = fresh_instance () in
  let dir = tmpdir () in
  let rejects0 = counter_value "store.rejects" in
  Alcotest.(check bool) "load from empty dir" false (Sig_cache.load_frozen ~dir c);
  Alcotest.(check int) "no reject counted" rejects0 (counter_value "store.rejects");
  Obs.disable ()

(* Codec round trip through the public API: arbitrary triples —
   non-canonical order, negative and extreme diff words — must survive
   store -> freeze -> find and a full save/load cycle bit for bit.
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
      Sig_cache.store c1 0 triples;
      Sig_cache.freeze c1;
      let from_memory = Sig_cache.find c1 0 in
      let dir = tmpdir () in
      let saved = Sig_cache.save_frozen ~dir c1 in
      let c2 = Sig_cache.create net pats in
      let loaded = Sig_cache.load_frozen ~dir c2 in
      let from_disk = Sig_cache.find c2 0 in
      saved && loaded && from_memory = Some triples && from_disk = Some triples)

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
        Alcotest.test_case "snapshot for another netlist rejected" `Quick
          test_foreign_netlist_rejected;
        Alcotest.test_case "snapshot for another pattern set rejected" `Quick
          test_foreign_patterns_rejected;
        Alcotest.test_case "missing file is cold, not a reject" `Quick
          test_missing_file_not_a_reject;
      ]
      @ List.map QCheck_alcotest.to_alcotest [ prop_codec_round_trip ] );
  ]

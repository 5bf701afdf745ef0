(* The design store ([Design.session]): the one load-or-build path the
   diagnose tool runs.  The contract: a loaded test set is the generated
   set byte for byte, and a file that is not exactly what a save would
   write for this design and flow is rejected — counted in
   ["store.rejects"] — and replaced by a freshly generated, freshly
   saved set.  A restart builds nothing, a pattern file of the wrong
   width is an error, and a store always ends with the whole signature
   arena: adopted from a valid image, or swept and saved.  Each call
   runs under its own sink, so its counters and phases are read in
   isolation. *)

(* penc4 has untestable faults, so generating its set runs PODEM; each
   call builds a fresh netlist, so [Campaign.test_report]'s per-netlist
   memo never answers for a store miss. *)
let design () = Design.Built (Generators.priority_encoder 4)

let reference =
  lazy (Pattern.to_text (Campaign.test_set (Generators.priority_encoder 4)))

type tally = {
  session : Session.t;
  text : string;
  counter : string -> int;
  phase_count : string -> int;
}

let opened ?store_dir circuit =
  let sk = Obs.sink () in
  let session =
    Obs.with_sink sk (fun () ->
        Result.get_ok (Design.session ?store_dir circuit ~patterns:None))
  in
  let snap = Obs.sink_snapshot sk in
  {
    session;
    text = Pattern.to_text (Session.patterns session);
    counter = (fun name -> List.assoc name snap.Obs.counters);
    phase_count =
      (fun name ->
        match List.find_opt (fun p -> p.Obs.p_name = name) snap.Obs.phases with
        | Some p -> p.Obs.p_count
        | None -> 0);
  }

let stored_set dir = opened ~store_dir:dir (design ())
let read = Image_edit.read
let write = Image_edit.write

let image_path ~dir circuit =
  let net = Result.get_ok (Design.load_circuit circuit) in
  Store_file.path ~dir ~source:(Netlist.source net)

let check_counts name t ~loads ~saves ~rejects =
  Alcotest.(check int) (name ^ ": store.loads") loads (t.counter "store.loads");
  Alcotest.(check int) (name ^ ": store.saves") saves (t.counter "store.saves");
  Alcotest.(check int) (name ^ ": store.rejects") rejects (t.counter "store.rejects")

let test_round_trip () =
  Temp_dir.with_dir @@ fun dir ->
  let first = stored_set dir in
  check_counts "cold store" first ~loads:0 ~saves:1 ~rejects:0;
  Alcotest.(check bool) "generated on a miss" true (first.phase_count "tpg" = 1);
  Alcotest.(check string) "generated set" (Lazy.force reference) first.text;
  Alcotest.(check bool) "file written" true
    (Sys.file_exists (image_path ~dir (design ())));
  let second = stored_set dir in
  check_counts "primed store" second ~loads:1 ~saves:0 ~rejects:0;
  Alcotest.(check int) "no PODEM call" 0 (second.counter "tpg.podem_calls");
  Alcotest.(check int) "no tpg phase" 0 (second.phase_count "tpg");
  Alcotest.(check int) "one store.load phase" 1 (second.phase_count "store.load");
  Alcotest.(check string) "loaded set = generated set" (Lazy.force reference) second.text

let set_int64 off v b =
  Bytes.set_int64_le b off (Int64.of_int v);
  b

let flip i b =
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  b

(* Every row loses its last bit to a blank.  [Pattern.of_text] trims
   blanks, so it would read the section as a consistent set one PI
   narrower; only the row walk knows the width.  The checksum is
   recomputed over the edit, so only the checks past it can catch
   it. *)
let narrowed_rows b =
  Image_edit.reseal_section b Store_file.tests_section (fun (ints, rows) ->
      let npis = ints.(0) and count = ints.(1) in
      let rows = Bytes.copy rows in
      for p = 0 to count - 1 do
        Bytes.set rows ((p * (npis + 1)) + npis - 1) ' '
      done;
      (ints, rows))

(* The section's PI count one more than the design's, resealed. *)
let npis_mismatch b =
  Image_edit.reseal_section b Store_file.tests_section (fun (ints, rows) ->
      ([| ints.(0) + 1; ints.(1) |], rows))

(* Another design's valid file, copied onto this design's path. *)
let foreign_netlist dir _ =
  let other = Design.Built (Generators.ripple_adder 4) in
  ignore (opened ~store_dir:dir other : tally);
  read (image_path ~dir other)

let reject_case name mangle () =
  Temp_dir.with_dir @@ fun dir ->
  ignore (stored_set dir : tally);
  let path = image_path ~dir (design ()) in
  write path (mangle dir (read path));
  let rejected = stored_set dir in
  check_counts name rejected ~loads:0 ~saves:1 ~rejects:1;
  Alcotest.(check string)
    (name ^ ": regenerated set")
    (Lazy.force reference) rejected.text;
  let reloaded = stored_set dir in
  check_counts (name ^ ", re-saved file") reloaded ~loads:1 ~saves:0 ~rejects:0;
  Alcotest.(check string) (name ^ ": reloaded set") (Lazy.force reference) reloaded.text

(* A restart of a suite circuit named as the CLI names it: the image is
   found by the name's source key, and the second open builds nothing —
   one store.load, one load, no netlist.build and no tpg phase — and
   gets the same netlist and set back, with the signatures the first
   open swept. *)
let test_restart_builds_nothing () =
  Temp_dir.with_dir @@ fun dir ->
  let circuit = Design.Named "alu8" in
  let first = opened ~store_dir:dir circuit in
  check_counts "first open" first ~loads:0 ~saves:1 ~rejects:0;
  Alcotest.(check int) "first open builds" 1 (first.phase_count "netlist.build");
  let again = opened ~store_dir:dir circuit in
  check_counts "restart" again ~loads:1 ~saves:0 ~rejects:0;
  let phases count names =
    List.iter
      (fun name ->
        Alcotest.(check int) (Printf.sprintf "restart: %s x%d" name count) count
          (again.phase_count name))
      names
  in
  phases 0 [ "netlist.build"; "tpg"; "prewarm"; "store.save" ];
  phases 1 [ "netlist.load"; "store.load"; "session.create"; "store.adopt" ];
  Alcotest.(check int) "restart: no PODEM call" 0 (again.counter "tpg.podem_calls");
  Alcotest.(check string) "same set" first.text again.text;
  Alcotest.(check string) "same netlist"
    (Netlist.source (Session.netlist first.session))
    (Netlist.source (Session.netlist again.session));
  let footprint t = Sig_cache.frozen_bytes (Option.get (Session.cache t.session)) in
  Alcotest.(check int) "adopted arena = swept arena" (footprint first) (footprint again)

(* A [.bench] file's bytes [text] through the store as [circuit]: the
   first open misses and builds the netlist from the bytes it digested
   to look the image up; the restart finds the image by that digest and
   builds nothing.  Both must carry the file's digest as their source
   and render the same report. *)
let check_bench_restart ~store ~text circuit =
  let first = opened ~store_dir:store circuit in
  check_counts "first open" first ~loads:0 ~saves:1 ~rejects:0;
  Alcotest.(check int) "first open builds" 1 (first.phase_count "netlist.build");
  let again = opened ~store_dir:store circuit in
  check_counts "restart" again ~loads:1 ~saves:0 ~rejects:0;
  Alcotest.(check int) "restart builds nothing" 0 (again.phase_count "netlist.build");
  let source t = Netlist.source (Session.netlist t.session) in
  Alcotest.(check string) "source is the file's digest" (Bench_io.source_key text)
    (source first);
  Alcotest.(check string) "same source" (source first) (source again);
  let net = Session.netlist first.session and pats = Session.patterns first.session in
  let dlog =
    match
      Campaign.failing_die (Rng.create 5) net pats
        ~expected:(Logic_sim.responses net pats) ~multiplicity:2
    with
    | Some (_, dlog), _ -> dlog
    | None, _ -> Alcotest.fail "no failing draw"
  in
  let report t =
    Report.render (Session.netlist t.session) (Noassume.diagnose_session t.session dlog)
  in
  Alcotest.(check string) "same report" (report first) (report again)

let bench_text = lazy (Bench_io.to_string (Generators.alu 8))

let test_bench_file_restart () =
  Temp_dir.with_dir @@ fun dir ->
  let text = Lazy.force bench_text in
  let path = Filename.concat dir "alu8.bench" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  check_bench_restart ~store:(Filename.concat dir "store") ~text (Design.File path)

(* The same bytes as a vendored tier: a [.bench] under MDD_CIRCUITS_DIR,
   named like a suite circuit.  The lookup's digest reads the file once
   and the miss's build parses those bytes, so the build still succeeds
   after the file is gone. *)
let test_vendored_tier_restart () =
  Temp_dir.with_dir @@ fun dir ->
  let text = Lazy.force bench_text in
  let circuits = Filename.concat dir "circuits" in
  Sys.mkdir circuits 0o755;
  let path = Filename.concat circuits "valu8.bench" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let saved = Option.value (Sys.getenv_opt "MDD_CIRCUITS_DIR") ~default:"" in
  Unix.putenv "MDD_CIRCUITS_DIR" circuits;
  Fun.protect
    ~finally:(fun () -> Unix.putenv "MDD_CIRCUITS_DIR" saved)
    (fun () ->
      Alcotest.(check (option string))
        "source key" (Some (Bench_io.source_key text)) (Generators.source_key "valu8");
      Sys.remove path;
      check_bench_restart ~store:(Filename.concat dir "store") ~text
        (Design.Named "valu8"))

(* A pattern file one PI too wide is an [Error] naming the file, with
   and without a store, and writes no image. *)
let test_wrong_width_is_an_error () =
  Temp_dir.with_dir @@ fun dir ->
  Temp_dir.with_dir @@ fun files ->
  let net = Generators.priority_encoder 4 in
  let path = Filename.concat files "wide.txt" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.make (Netlist.num_pis net + 1) '0' ^ "\n"));
  List.iter
    (fun (name, store_dir) ->
      match Design.session ?store_dir (Design.Built net) ~patterns:(Some path) with
      | Ok _ -> Alcotest.failf "%s: a wrong-width set was accepted" name
      | Error msg ->
        Alcotest.(check bool)
          (name ^ ": error names the file")
          true
          (String.starts_with ~prefix:path msg))
    [ ("no store", None); ("store", Some dir) ];
  Alcotest.(check int) "no image written" 0 (Array.length (Sys.readdir dir))

let arena t = Option.get (Session.cache t.session)

(* The length of the signature section of [net]'s image at [path]. *)
let signature_bytes ~path net =
  let source = Netlist.source net in
  Store_file.load ~path
    ~key:(Store_file.key_of ~source ~origin:Campaign.atpg_origin)
    (fun img -> img.Store_file.sections.(Store_file.signatures_section).Store_file.len)

(* Every class representative's signature is in [t]'s arena. *)
let holds_every_representative t =
  Array.for_all
    (fun (f : Fault_list.fault) ->
      Sig_cache.mem (arena t) (Sig_cache.key ~site:f.site ~stuck:f.stuck))
    (Session.representatives t.session)

(* The run decides the arena.  Without a store it starts empty; a store
   open that misses sweeps the pool and saves an image that holds every
   representative, and the next open adopts that image: no sweep, no
   save. *)
let test_store_holds_whole_arena () =
  let bare = opened (design ()) in
  Alcotest.(check int) "no store: empty arena" 0 (Sig_cache.frozen_bytes (arena bare));
  Alcotest.(check int) "no store: no sweep" 0 (bare.phase_count "prewarm");
  Temp_dir.with_dir @@ fun dir ->
  let first = stored_set dir in
  check_counts "miss" first ~loads:0 ~saves:1 ~rejects:0;
  Alcotest.(check bool) "miss: swept" true (first.counter "prewarm.faults" > 0);
  let again = stored_set dir in
  check_counts "restart" again ~loads:1 ~saves:0 ~rejects:0;
  Alcotest.(check int) "restart: prewarm.faults" 0 (again.counter "prewarm.faults");
  Alcotest.(check int) "restart: no store.save" 0 (again.phase_count "store.save");
  Alcotest.(check bool) "adopted arena holds every representative" true
    (holds_every_representative again);
  Alcotest.(check int) "adopted arena = swept arena"
    (Sig_cache.frozen_bytes (arena first))
    (Sig_cache.frozen_bytes (arena again))

(* An image without a signature section (what a save of an empty arena
   writes) is loaded, swept and re-saved once; the open after that
   adopts the signatures and writes nothing. *)
let test_signature_less_image_swept () =
  Temp_dir.with_dir @@ fun dir ->
  let net = Generators.priority_encoder 4 in
  let empty = Session.create net (Campaign.test_set net) in
  Alcotest.(check bool) "empty image saved" true
    (Sig_cache.save_frozen ~dir (Option.get (Session.cache empty)));
  let path = image_path ~dir (design ()) in
  Alcotest.(check (option int)) "no signature section" (Some 0) (signature_bytes ~path net);
  let swept = stored_set dir in
  check_counts "signature-less image" swept ~loads:1 ~saves:1 ~rejects:0;
  Alcotest.(check bool) "swept" true (swept.counter "prewarm.faults" > 0);
  Alcotest.(check bool) "signatures saved" true
    (match signature_bytes ~path net with Some n -> n > 0 | None -> false);
  let bytes = read path in
  let loaded = stored_set dir in
  check_counts "re-saved image" loaded ~loads:1 ~saves:0 ~rejects:0;
  Alcotest.(check int) "re-saved image: prewarm.faults" 0 (loaded.counter "prewarm.faults");
  Alcotest.(check bool) "file unchanged" true (Bytes.equal bytes (read path));
  Alcotest.(check bool) "loaded arena holds every representative" true
    (holds_every_representative loaded)

let suite =
  [
    ( "test_store",
      [
        Alcotest.test_case "stored set round trip" `Quick test_round_trip;
        Alcotest.test_case "foreign magic rejected" `Quick
          (reject_case "magic" (fun _ -> flip 0));
        Alcotest.test_case "stale version rejected" `Quick
          (reject_case "version" (fun _ -> set_int64 8 99));
        Alcotest.test_case "another netlist's file rejected" `Quick
          (reject_case "foreign netlist" foreign_netlist);
        Alcotest.test_case "flipped body byte rejected" `Quick
          (reject_case "body" (fun _ b -> flip (Bytes.length b - 3) b));
        Alcotest.test_case "npis mismatch rejected" `Quick
          (reject_case "npis" (fun _ -> npis_mismatch));
        Alcotest.test_case "narrowed rows rejected by the walk" `Quick
          (reject_case "narrowed rows" (fun _ -> narrowed_rows));
      ] );
    ( "design",
      [
        Alcotest.test_case "restart builds nothing" `Quick test_restart_builds_nothing;
        Alcotest.test_case "bench file: miss, then restart" `Quick
          test_bench_file_restart;
        Alcotest.test_case "wrong-width pattern file is an error" `Quick
          test_wrong_width_is_an_error;
        Alcotest.test_case "image without signatures swept once" `Quick
          test_signature_less_image_swept;
        Alcotest.test_case "vendored bench tier: miss, then restart" `Quick
          test_vendored_tier_restart;
        Alcotest.test_case "a store always holds the whole arena" `Quick
          test_store_holds_whole_arena;
      ] );
  ]

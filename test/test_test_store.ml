(* The stored test set ([Campaign.test_set ~store_dir]): the test-set
   section of the design image.  The contract: a loaded set is the
   generated set byte for byte, and a file that is not exactly what a
   save would write for this design and flow is rejected — counted in
   ["store.rejects"] — and replaced by a freshly generated, freshly
   saved set.  Each call runs under its own sink, so its counters and
   phases are read in isolation. *)

let tmpdir () =
  let f = Filename.temp_file "mddtests" "" in
  Sys.remove f;
  Unix.mkdir f 0o755;
  f

(* penc4 has untestable faults, so generating its set runs PODEM; each
   call builds a fresh netlist, so [Campaign.test_report]'s per-netlist
   memo never answers for a store miss. *)
let design () = Generators.priority_encoder 4

let reference = lazy (Pattern.to_text (Campaign.test_set (design ())))

type tally = { text : string; counter : string -> int; phase_count : string -> int }

let stored_set dir =
  let sk = Obs.sink () in
  let pats = Obs.with_sink sk (fun () -> Campaign.test_set ~store_dir:dir (design ())) in
  let snap = Obs.sink_snapshot sk in
  {
    text = Pattern.to_text pats;
    counter = (fun name -> List.assoc name snap.Obs.counters);
    phase_count =
      (fun name ->
        match List.find_opt (fun p -> p.Obs.p_name = name) snap.Obs.phases with
        | Some p -> p.Obs.p_count
        | None -> 0);
  }

let read = Image_edit.read
let write = Image_edit.write
let image_path ~dir net = Store_file.path ~dir ~source:(Netlist.source net)

let check_counts name t ~loads ~saves ~rejects =
  Alcotest.(check int) (name ^ ": store.loads") loads (t.counter "store.loads");
  Alcotest.(check int) (name ^ ": store.saves") saves (t.counter "store.saves");
  Alcotest.(check int) (name ^ ": store.rejects") rejects (t.counter "store.rejects")

let test_round_trip () =
  let dir = tmpdir () in
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
  let other = Generators.ripple_adder 4 in
  ignore (Campaign.test_set ~store_dir:dir other : Pattern.t);
  read (image_path ~dir other)

let reject_case name mangle () =
  let dir = tmpdir () in
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
  ]

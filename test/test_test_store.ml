(* The stored test set ([Campaign.test_set ~store_dir]).  The contract:
   a loaded set is the generated set byte for byte, and a file that is
   not exactly what a save would write for this design and flow is
   rejected — counted in ["tests.rejects"] — and replaced by a freshly
   generated, freshly saved set.  Each call runs under its own sink, so
   its counters and phases are read in isolation. *)

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

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> Bytes.of_string (really_input_string ic (in_channel_length ic)))

let write path b =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_bytes oc b)

let check_counts name t ~loads ~saves ~rejects =
  Alcotest.(check int) (name ^ ": tests.loads") loads (t.counter "tests.loads");
  Alcotest.(check int) (name ^ ": tests.saves") saves (t.counter "tests.saves");
  Alcotest.(check int) (name ^ ": tests.rejects") rejects (t.counter "tests.rejects")

let test_round_trip () =
  let dir = tmpdir () in
  let first = stored_set dir in
  check_counts "cold store" first ~loads:0 ~saves:1 ~rejects:0;
  Alcotest.(check bool) "generated on a miss" true (first.phase_count "tpg" = 1);
  Alcotest.(check string) "generated set" (Lazy.force reference) first.text;
  Alcotest.(check bool) "file written" true
    (Sys.file_exists (Campaign.test_store_path ~dir (design ())));
  let second = stored_set dir in
  check_counts "primed store" second ~loads:1 ~saves:0 ~rejects:0;
  Alcotest.(check int) "no PODEM call" 0 (second.counter "tpg.podem_calls");
  Alcotest.(check int) "no tpg phase" 0 (second.phase_count "tpg");
  Alcotest.(check int) "one tests.load phase" 1 (second.phase_count "tests.load");
  Alcotest.(check string) "loaded set = generated set" (Lazy.force reference) second.text

let header_len = 64 (* 8 magic + 8 version + 16 key + 16 content + 2 ints *)

let set_int64 off v b =
  Bytes.set_int64_le b off (Int64.of_int v);
  b

let flip i b =
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  b

(* Rewrite the content digest over the (edited) body, so only the checks
   past the digest can catch the edit. *)
let redigest b =
  let body = Bytes.sub b header_len (Bytes.length b - header_len) in
  Bytes.blit_string (Digest.bytes body) 0 b 32 16;
  b

(* Every row loses its last bit to a blank.  [Pattern.of_text] trims
   blanks, so it would read the body as a consistent set one PI
   narrower; only the row walk knows the width. *)
let narrowed_rows b =
  let npis = Int64.to_int (Bytes.get_int64_le b 48) in
  let count = Int64.to_int (Bytes.get_int64_le b 56) in
  for p = 0 to count - 1 do
    Bytes.set b (header_len + (p * (npis + 1)) + npis - 1) ' '
  done;
  redigest b

(* Another design's valid file, copied onto this design's path. *)
let foreign_netlist dir _ =
  let other = Generators.ripple_adder 4 in
  ignore (Campaign.test_set ~store_dir:dir other : Pattern.t);
  read (Campaign.test_store_path ~dir other)

let reject_case name mangle () =
  let dir = tmpdir () in
  ignore (stored_set dir : tally);
  let path = Campaign.test_store_path ~dir (design ()) in
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
          (reject_case "npis" (fun _ b ->
               set_int64 48 (Int64.to_int (Bytes.get_int64_le b 48) + 1) b));
        Alcotest.test_case "narrowed rows rejected by the walk" `Quick
          (reject_case "narrowed rows" (fun _ -> narrowed_rows));
      ] );
  ]

let bits_of_int w v = Array.init w (fun i -> v land (1 lsl i) <> 0)

let int_of_bits a =
  Array.to_list a
  |> List.mapi (fun i b -> if b then 1 lsl i else 0)
  |> List.fold_left ( lor ) 0

(* Oracle: simulating the unrolled array on an input sequence must equal
   running the sequential machine from reset. *)
let check_equiv design frames seed =
  let u = Unroll.make design ~frames in
  let net = Unroll.netlist u in
  let rng = Rng.create seed in
  let npis = Scan_design.num_pis design in
  let npos = Scan_design.num_pos design in
  for _ = 1 to 20 do
    let vectors = List.init frames (fun _ -> Array.init npis (fun _ -> Rng.bool rng)) in
    let flat = Unroll.sequence_pattern u vectors in
    let values = Logic_sim.simulate_pattern net flat in
    let sequential, _ = Scan_design.run design ~state:(Scan_design.initial_state design) vectors in
    List.iteri
      (fun frame po_values ->
        for oi = 0 to npos - 1 do
          let unrolled_po = (Netlist.pos net).((frame * npos) + oi) in
          if values.(unrolled_po) <> po_values.(oi) then
            Alcotest.failf "frame %d output %d differs from sequential run" frame oi
        done)
      sequential
  done

let test_counter_equivalence () = check_equiv (Seq_generators.counter 6) 5 31
let test_accumulator_equivalence () = check_equiv (Seq_generators.accumulator 6) 4 32
let test_lfsr_equivalence () = check_equiv (Seq_generators.lfsr 8) 6 33

let test_counter_counts_through_frames () =
  (* Enable held high from reset: frame t's state is t, so the terminal
     count output stays 0 for small frame counts and the unrolled PO of
     the counter value can be read back via the accumulator... simpler:
     check tc never fires in 4 frames from reset. *)
  let design = Seq_generators.counter 4 in
  let u = Unroll.make design ~frames:4 in
  let net = Unroll.netlist u in
  let flat = Unroll.sequence_pattern u (List.init 4 (fun _ -> [| true |])) in
  let values = Logic_sim.simulate_pattern net flat in
  Array.iter
    (fun po -> Alcotest.(check bool) "tc low" false values.(po))
    (Netlist.pos net)

let test_structure () =
  let design = Seq_generators.accumulator 6 in
  let u = Unroll.make design ~frames:3 in
  let net = Unroll.netlist u in
  Alcotest.(check int) "frames" 3 (Unroll.frames u);
  Alcotest.(check int) "pis" (3 * Scan_design.num_pis design) (Netlist.num_pis net);
  Alcotest.(check int) "pos" (3 * Scan_design.num_pos design) (Netlist.num_pos net);
  (* Every unrolled net maps to a core net and a valid frame. *)
  Netlist.iter_nets net (fun n ->
      let frame = Unroll.frame_of u n in
      Alcotest.(check bool) "frame range" true (frame >= 0 && frame < 3);
      match Unroll.core_net u n with
      | Some core ->
        Alcotest.(check bool) "core range" true
          (core >= 0 && core < Netlist.num_nets (Scan_design.core design))
      | None -> Alcotest.fail "unmapped net")

let test_nonscan_diagnosis () =
  (* The headline use: locate a stuck defect inside a NON-scan pipelined
     adder from four observed cycles, by diagnosing the unrolled array
     and collapsing the per-frame callouts.  Observability matters for
     the vehicle: this design exposes its full sum every cycle, so the
     defect localises exactly; a counter whose only output is the
     terminal count would stay silent for 2^w cycles, and an LFSR's
     single-bit stream confounds neighbouring stages within a short
     window. *)
  let design = Seq_generators.pipelined_adder 8 in
  let core = Scan_design.core design in
  let u = Unroll.make design ~frames:4 in
  let net = Unroll.netlist u in
  let site = Option.get (Netlist.find core "lo1_s") in
  let overlay = Unroll.inject_stuck u site false in
  let rng = Rng.create 34 in
  let pats =
    Pattern.of_list ~npis:(Netlist.num_pis net)
      (List.init 48 (fun _ ->
           Array.init (Netlist.num_pis net) (fun _ -> Rng.bool rng)))
  in
  let expected = Logic_sim.responses net pats in
  let observed = Logic_sim.responses_overlay net pats overlay in
  let dlog = Datalog.of_responses ~expected ~observed in
  Alcotest.(check bool) "failures observed" true (Datalog.num_failing dlog > 0);
  let r = Noassume.diagnose_session (Session.create net pats) dlog in
  let collapsed = Unroll.collapse_callouts u (Noassume.callout_nets r) in
  let q =
    Metrics.evaluate core
      ~injected:[ Defect.Stuck (site, false) ]
      ~callouts:collapsed
  in
  Alcotest.(check bool) "core site located" true (q.Metrics.hits = 1)

let test_sequence_pattern_validation () =
  let design = Seq_generators.counter 4 in
  let u = Unroll.make design ~frames:2 in
  Alcotest.check_raises "frame count"
    (Invalid_argument "Unroll.sequence_pattern: one vector per frame required")
    (fun () -> ignore (Unroll.sequence_pattern u [ [| true |] ]))

let test_collapse_dedup () =
  let design = Seq_generators.counter 4 in
  let u = Unroll.make design ~frames:3 in
  let core = Scan_design.core design in
  let site = Option.get (Netlist.find core "inc1_s") in
  (* Copies of the same core net across frames collapse to one.  The
     next-state net has one gate copy per frame PLUS the stitch cells
     that stand for its flip-flop (frame-0 reset constant and the
     inter-frame buffers). *)
  let copies =
    List.filter_map
      (fun n -> if Unroll.core_net u n = Some site then Some n else None)
      (List.init (Netlist.num_nets (Unroll.netlist u)) Fun.id)
  in
  Alcotest.(check int) "gate copies + stitches" 6 (List.length copies);
  Alcotest.(check (list int)) "collapse" [ site ] (Unroll.collapse_callouts u copies)

let suite =
  [
    ( "unroll",
      [
        Alcotest.test_case "counter equivalence" `Quick test_counter_equivalence;
        Alcotest.test_case "accumulator equivalence" `Quick test_accumulator_equivalence;
        Alcotest.test_case "lfsr equivalence" `Quick test_lfsr_equivalence;
        Alcotest.test_case "counter frames from reset" `Quick
          test_counter_counts_through_frames;
        Alcotest.test_case "structure" `Quick test_structure;
        Alcotest.test_case "non-scan diagnosis" `Quick test_nonscan_diagnosis;
        Alcotest.test_case "sequence validation" `Quick test_sequence_pattern_validation;
        Alcotest.test_case "collapse dedup" `Quick test_collapse_dedup;
      ] );
  ]

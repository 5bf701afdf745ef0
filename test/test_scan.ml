let bits_of_int w v = Array.init w (fun i -> v land (1 lsl i) <> 0)

let int_of_bits a =
  Array.to_list a
  |> List.mapi (fun i b -> if b then 1 lsl i else 0)
  |> List.fold_left ( lor ) 0

let test_make_validation () =
  let core = Generators.c17 () in
  (* c17: 5 PIs, 2 POs.  3 PPIs vs 1 PPO must be rejected. *)
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Scan_design.make: 3 PPIs but 1 PPOs") (fun () ->
      ignore (Scan_design.make ~core ~pis:2 ~pos:1 ~chains:1));
  Alcotest.check_raises "bad chains" (Invalid_argument "Scan_design.make: bad chain count")
    (fun () -> ignore (Scan_design.make ~core ~pis:5 ~pos:2 ~chains:0))

let test_counter_counts () =
  let d = Seq_generators.counter 8 in
  Alcotest.(check int) "cells" 8 (Scan_design.num_cells d);
  let state = ref (Scan_design.initial_state d) in
  for expected = 0 to 300 do
    Alcotest.(check int) "state value" (expected mod 256) (int_of_bits !state);
    let po, next = Scan_design.step d ~state:!state ~inputs:[| true |] in
    Alcotest.(check bool) "tc at 255" (expected mod 256 = 255) po.(0);
    state := next
  done;
  (* Disabled: state holds. *)
  let frozen, _ = (fun s -> (s, ())) !state in
  let _, next = Scan_design.step d ~state:frozen ~inputs:[| false |] in
  Alcotest.(check int) "hold" (int_of_bits frozen) (int_of_bits next)

let test_accumulator () =
  let w = 8 in
  let d = Seq_generators.accumulator w in
  let rng = Rng.create 91 in
  let state = ref (Scan_design.initial_state d) in
  let model = ref 0 in
  for _ = 1 to 100 do
    let add = Rng.int rng 256 in
    let po, next = Scan_design.step d ~state:!state ~inputs:(bits_of_int w add) in
    let sum = !model + add in
    Alcotest.(check bool) "ovf" (sum > 255) po.(0);
    model := sum land 255;
    state := next;
    Alcotest.(check int) "state" !model (int_of_bits next)
  done

let test_shift_register () =
  let w = 16 in
  let d = Seq_generators.shift_register w in
  let rng = Rng.create 92 in
  let stream = List.init 64 (fun _ -> Rng.bool rng) in
  let outputs, _ =
    Scan_design.run d ~state:(Scan_design.initial_state d)
      (List.map (fun b -> [| b |]) stream)
  in
  (* sout at cycle t equals the bit injected at cycle t - w. *)
  List.iteri
    (fun t po ->
      if t >= w then
        Alcotest.(check bool) (Printf.sprintf "cycle %d" t) (List.nth stream (t - w)) po.(0))
    outputs

let test_lfsr_step_semantics () =
  let w = 16 in
  let d = Seq_generators.lfsr w in
  let rng = Rng.create 93 in
  let taps = [ 0; 1; w / 2 ] in
  let state = ref (Array.init w (fun _ -> Rng.bool rng)) in
  for _ = 1 to 50 do
    let din = Rng.bool rng in
    let po, next = Scan_design.step d ~state:!state ~inputs:[| din |] in
    Alcotest.(check bool) "out = msb" !state.(w - 1) po.(0);
    let feedback = !state.(w - 1) <> din in
    Array.iteri
      (fun i n ->
        let expect =
          if i = 0 then feedback
          else if List.mem i taps then !state.(i - 1) <> feedback
          else !state.(i - 1)
        in
        Alcotest.(check bool) (Printf.sprintf "bit %d" i) expect n)
      next;
    state := next
  done

let test_pipelined_adder () =
  let w = 8 in
  let d = Seq_generators.pipelined_adder w in
  let rng = Rng.create 94 in
  for _ = 1 to 100 do
    let a = Rng.int rng 256 and b = Rng.int rng 256 in
    let inputs = Array.append (bits_of_int w a) (bits_of_int w b) in
    (* Hold the operands two cycles: the pipeline then shows the full
       sum. *)
    let outputs, _ =
      Scan_design.run d ~state:(Scan_design.initial_state d) [ inputs; inputs ]
    in
    let final = List.nth outputs 1 in
    let sum = Array.sub final 0 w |> int_of_bits in
    let cout = final.(w) in
    Alcotest.(check int) (Printf.sprintf "%d+%d" a b) ((a + b) land 255) sum;
    Alcotest.(check bool) "cout" (a + b > 255) cout
  done

let test_chain_mapping () =
  let d = Seq_generators.accumulator 8 in
  Alcotest.(check int) "chains" 2 (Scan_design.num_chains d);
  (* Round-robin: cell 0 -> chain 0, cell 1 -> chain 1, cell 2 -> chain 0... *)
  for cell = 0 to 7 do
    let c, k = Scan_design.chain_position d cell in
    Alcotest.(check int) "chain" (cell mod 2) c;
    Alcotest.(check int) "position" (cell / 2) k
  done;
  (* Every (chain, position) pair is distinct and covers all cells. *)
  let seen = Hashtbl.create 8 in
  for cell = 0 to 7 do
    let coord = Scan_design.chain_position d cell in
    Alcotest.(check bool) "distinct" false (Hashtbl.mem seen coord);
    Hashtbl.add seen coord ()
  done

let test_ppi_ppo_mapping () =
  let d = Seq_generators.counter 8 in
  Alcotest.(check (option int)) "true PI" None (Scan_design.cell_of_ppi d 0);
  Alcotest.(check (option int)) "first cell" (Some 0) (Scan_design.cell_of_ppi d 1);
  Alcotest.(check (option int)) "true PO" None (Scan_design.cell_of_ppo d 0);
  Alcotest.(check (option int)) "cell PPO" (Some 3) (Scan_design.cell_of_ppo d 4);
  Alcotest.(check bool) "describe PO" true
    (String.length (Scan_design.describe_po d 0) > 0);
  let s = Scan_design.describe_po d 4 in
  Alcotest.(check bool) "describe cell mentions chain" true
    (String.length s >= 5 && String.sub s 0 5 = "chain")

let test_scan_diagnosis_end_to_end () =
  (* The point of the reduction: diagnosis runs unchanged on the core of
     a sequential design.  Inject a stuck inside the counter's increment
     logic, diagnose from the scan datalog, hit the site. *)
  let d = Seq_generators.counter 8 in
  let core = Scan_design.core d in
  let report = Tpg.generate ~seed:3 core in
  let pats = report.Tpg.patterns in
  let site = Option.get (Netlist.find core "inc3_s") in
  let defects = [ Defect.Stuck (site, false) ] in
  let expected = Logic_sim.responses core pats in
  let observed = Injection.observed_responses core pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  Alcotest.(check bool) "failures observed" true (Datalog.num_failing dlog > 0);
  (* At least one failing observation lands on a scan cell, and its
     tester-facing description says so. *)
  let obs = Datalog.observations dlog in
  let on_cells =
    Array.exists (fun (o : Datalog.observation) -> Scan_design.cell_of_ppo d o.po <> None) obs
  in
  Alcotest.(check bool) "fails at scan cells" true on_cells;
  let r = Noassume.diagnose_session (Session.create core pats) dlog in
  let q = Metrics.evaluate core ~injected:defects ~callouts:(Noassume.callout_nets r) in
  Alcotest.(check bool) "located" true (q.Metrics.hits = 1)

let test_seq_suite () =
  let names = List.map fst (Seq_generators.seq_suite ()) in
  Alcotest.(check int) "five designs" 5 (List.length names);
  List.iter
    (fun (_, d) ->
      (* Core invariants: PPI count = PPO count = cells. *)
      let core = Scan_design.core d in
      Alcotest.(check int) "ppi = cells"
        (Netlist.num_pis core - Scan_design.num_pis d)
        (Scan_design.num_cells d);
      Alcotest.(check int) "ppo = cells"
        (Netlist.num_pos core - Scan_design.num_pos d)
        (Scan_design.num_cells d))
    (Seq_generators.seq_suite ())

let suite =
  [
    ( "scan",
      [
        Alcotest.test_case "make validation" `Quick test_make_validation;
        Alcotest.test_case "counter counts" `Quick test_counter_counts;
        Alcotest.test_case "accumulator" `Quick test_accumulator;
        Alcotest.test_case "shift register" `Quick test_shift_register;
        Alcotest.test_case "lfsr semantics" `Quick test_lfsr_step_semantics;
        Alcotest.test_case "pipelined adder" `Quick test_pipelined_adder;
        Alcotest.test_case "chain mapping" `Quick test_chain_mapping;
        Alcotest.test_case "ppi/ppo mapping" `Quick test_ppi_ppo_mapping;
        Alcotest.test_case "scan diagnosis end to end" `Quick
          test_scan_diagnosis_end_to_end;
        Alcotest.test_case "seq suite invariants" `Quick test_seq_suite;
      ] );
  ]

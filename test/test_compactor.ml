let test_wrap_structure () =
  let net = Generators.decoder 4 in
  (* 16 outputs -> 4 pins at 4:1. *)
  let wrapped, mapping = Compactor.wrap net ~arity:4 in
  Alcotest.(check int) "pins" 4 (Netlist.num_pos wrapped);
  Alcotest.(check int) "arity recorded" 4 mapping.Compactor.arity;
  Alcotest.(check int) "groups" 4 (Array.length mapping.Compactor.groups);
  (* Original nets preserved with the same ids and names. *)
  Netlist.iter_nets net (fun n ->
      Alcotest.(check string) "name preserved" (Netlist.name net n)
        (Netlist.name wrapped n));
  Alcotest.(check int) "pis unchanged" (Netlist.num_pis net) (Netlist.num_pis wrapped)

let test_uneven_split () =
  let net = Generators.comparator 8 in
  (* 3 outputs at 2:1 -> pins of 2 and 1. *)
  let wrapped, mapping = Compactor.wrap net ~arity:2 in
  Alcotest.(check int) "pins" 2 (Netlist.num_pos wrapped);
  Alcotest.(check (array int)) "first group" [| 0; 1 |] mapping.Compactor.groups.(0);
  Alcotest.(check (array int)) "second group" [| 2 |] mapping.Compactor.groups.(1)

let test_semantics () =
  (* Each compactor pin computes the XOR of its member outputs, on every
     pattern. *)
  let net = Generators.ripple_adder 6 in
  let wrapped, mapping = Compactor.wrap net ~arity:3 in
  let pats = Pattern.random (Rng.create 97) ~npis:(Netlist.num_pis net) ~count:64 in
  let plain = Logic_sim.responses net pats in
  let compacted = Logic_sim.responses wrapped pats in
  Array.iteri
    (fun c group ->
      for p = 0 to Pattern.count pats - 1 do
        let expect =
          Array.fold_left (fun acc oi -> acc <> Bitvec.get plain.(oi) p) false group
        in
        Alcotest.(check bool)
          (Printf.sprintf "pin %d pattern %d" c p)
          expect
          (Bitvec.get compacted.(c) p)
      done)
    mapping.Compactor.groups

let test_arity_one_is_buffered () =
  let net = Generators.comparator 4 in
  let wrapped, _ = Compactor.wrap net ~arity:1 in
  Alcotest.(check int) "same pin count" (Netlist.num_pos net) (Netlist.num_pos wrapped);
  let pats = Pattern.random (Rng.create 98) ~npis:(Netlist.num_pis net) ~count:32 in
  let plain = Logic_sim.responses net pats in
  let buffered = Logic_sim.responses wrapped pats in
  Alcotest.(check bool) "identical responses" true
    (Array.for_all2 Bitvec.equal plain buffered)

let test_pin_of_po () =
  let net = Generators.decoder 3 in
  let _, mapping = Compactor.wrap net ~arity:3 in
  Alcotest.(check int) "po 0" 0 (Compactor.pin_of_po mapping 0);
  Alcotest.(check int) "po 5" 1 (Compactor.pin_of_po mapping 5);
  Alcotest.(check int) "po 7" 2 (Compactor.pin_of_po mapping 7)

let test_aliasing_possible () =
  (* Two errors under one pin cancel: force two member POs to flip by
     injecting a defect on a net feeding both...  Simplest check:
     a defect observable in the plain design can become unobservable in
     the compacted one, but never the other way around for single
     faults... actually an error on ONE member is always observable.
     Check that. *)
  let net = Generators.decoder 3 in
  let wrapped, mapping = Compactor.wrap net ~arity:2 in
  let pats = Pattern.exhaustive ~npis:(Netlist.num_pis net) in
  let expected_plain = Logic_sim.responses net pats in
  let expected_cmp = Logic_sim.responses wrapped pats in
  (* Stuck on a single decoder output line: only one member of a pin
     changes, so every plain failure maps to a compacted failure. *)
  let d0 = (Netlist.pos net).(0) in
  let defect = [ Logic_sim.force d0 true ] in
  let obs_plain = Logic_sim.responses_overlay net pats defect in
  let obs_cmp = Logic_sim.responses_overlay wrapped pats defect in
  for p = 0 to Pattern.count pats - 1 do
    let plain_fail = Bitvec.get expected_plain.(0) p <> Bitvec.get obs_plain.(0) p in
    let pin = Compactor.pin_of_po mapping 0 in
    let cmp_fail = Bitvec.get expected_cmp.(pin) p <> Bitvec.get obs_cmp.(pin) p in
    Alcotest.(check bool) "single-member error visible" plain_fail cmp_fail
  done

let test_diagnosis_through_compactor () =
  let net = Generators.decoder 4 in
  let wrapped, _ = Compactor.wrap net ~arity:4 in
  let report = Tpg.generate ~seed:5 wrapped in
  let pats = report.Tpg.patterns in
  let site = Option.get (Netlist.find wrapped "d7") in
  let defects = [ Defect.Stuck (site, true) ] in
  let expected = Logic_sim.responses wrapped pats in
  let observed = Injection.observed_responses wrapped pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  Alcotest.(check bool) "failures visible through compactor" true
    (Datalog.num_failing dlog > 0);
  let r = Noassume.diagnose_session (Session.create wrapped pats) dlog in
  let q = Metrics.evaluate wrapped ~injected:defects ~callouts:(Noassume.callout_nets r) in
  Alcotest.(check bool) "located" true (q.Metrics.hits = 1)

let suite =
  [
    ( "compactor",
      [
        Alcotest.test_case "wrap structure" `Quick test_wrap_structure;
        Alcotest.test_case "uneven split" `Quick test_uneven_split;
        Alcotest.test_case "xor semantics" `Quick test_semantics;
        Alcotest.test_case "arity 1 buffered" `Quick test_arity_one_is_buffered;
        Alcotest.test_case "pin_of_po" `Quick test_pin_of_po;
        Alcotest.test_case "single-member error visible" `Quick test_aliasing_possible;
        Alcotest.test_case "diagnosis through compactor" `Quick
          test_diagnosis_through_compactor;
      ] );
  ]

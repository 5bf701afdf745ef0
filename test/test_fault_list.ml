let fault site stuck = { Fault_list.site; stuck }

let test_inverter_chain_equivalence () =
  (* a -> NOT n1 -> NOT n2 (output): a sa0 == n1 sa1 == n2 sa0. *)
  let b = Builder.create () in
  let a = Builder.input b "a" in
  let n1 = Builder.not_ b ~name:"n1" a in
  let n2 = Builder.not_ b ~name:"n2" n1 in
  Builder.mark_output b n2;
  let net = Builder.finalize b in
  let c = Fault_list.collapse net in
  let rep = Reference.representative_of (Fault_list.representative_indices c) in
  Alcotest.(check bool) "a sa0 == n1 sa1" true
    (rep (fault a false) = rep (fault n1 true));
  Alcotest.(check bool) "n1 sa1 == n2 sa0" true
    (rep (fault n1 true) = rep (fault n2 false));
  Alcotest.(check bool) "a sa1 == n2 sa1-chain" true
    (rep (fault a true) = rep (fault n2 true));
  Alcotest.(check bool) "polarities distinct" true
    (rep (fault a false) <> rep (fault a true));
  Alcotest.(check int) "2 classes" 2 (Fault_list.num_classes c)

let test_and_gate_equivalence () =
  (* z = AND(a, b), fanout-free inputs: a sa0 == b sa0 == z sa0; sa1
     faults all distinct. *)
  let b = Builder.create () in
  let a = Builder.input b "a" in
  let bb = Builder.input b "b" in
  let z = Builder.and_ b ~name:"z" [ a; bb ] in
  Builder.mark_output b z;
  let net = Builder.finalize b in
  let c = Fault_list.collapse net in
  let rep = Reference.representative_of (Fault_list.representative_indices c) in
  Alcotest.(check bool) "a sa0 == z sa0" true (rep (fault a false) = rep (fault z false));
  Alcotest.(check bool) "b sa0 == z sa0" true (rep (fault bb false) = rep (fault z false));
  Alcotest.(check bool) "a sa1 distinct" true (rep (fault a true) <> rep (fault bb true));
  (* 6 faults: {a0,b0,z0} one class + a1, b1, z1 -> 4 classes. *)
  Alcotest.(check int) "classes" 4 (Fault_list.num_classes c)

let test_nand_polarity () =
  (* z = NAND(a, b): input sa0 == output sa1. *)
  let b = Builder.create () in
  let a = Builder.input b "a" in
  let bb = Builder.input b "b" in
  let z = Builder.gate b "z" Gate.Nand [ a; bb ] in
  Builder.mark_output b z;
  let net = Builder.finalize b in
  let c = Fault_list.collapse net in
  let rep = Reference.representative_of (Fault_list.representative_indices c) in
  Alcotest.(check bool) "a sa0 == z sa1" true (rep (fault a false) = rep (fault z true))

let test_fanout_blocks_collapsing () =
  (* When the input net has a second reader, no collapsing through the
     gate is allowed. *)
  let b = Builder.create () in
  let a = Builder.input b "a" in
  let bb = Builder.input b "b" in
  let z1 = Builder.and_ b ~name:"z1" [ a; bb ] in
  let z2 = Builder.not_ b ~name:"z2" a in
  Builder.mark_output b z1;
  Builder.mark_output b z2;
  let net = Builder.finalize b in
  let c = Fault_list.collapse net in
  let rep = Reference.representative_of (Fault_list.representative_indices c) in
  Alcotest.(check bool) "a sa0 not collapsed into z1" true
    (rep (fault a false) <> rep (fault z1 false));
  (* b has a single fanout, so b sa0 == z1 sa0 still holds. *)
  Alcotest.(check bool) "b sa0 == z1 sa0" true (rep (fault bb false) = rep (fault z1 false))

let test_xor_no_collapsing () =
  let b = Builder.create () in
  let a = Builder.input b "a" in
  let bb = Builder.input b "b" in
  let z = Builder.xor_ b ~name:"z" [ a; bb ] in
  Builder.mark_output b z;
  let net = Builder.finalize b in
  let c = Fault_list.collapse net in
  Alcotest.(check int) "all distinct" 6 (Fault_list.num_classes c)

let test_classes_partition () =
  (* On c17: every fault belongs to exactly one class; classes cover the
     universe; representative is idempotent. *)
  let net = Generators.c17 () in
  let c = Fault_list.collapse net in
  let reps = Fault_list.representatives c in
  Alcotest.(check int) "class count" (List.length reps) (Fault_list.num_classes c);
  let total =
    List.fold_left (fun acc r -> acc + List.length (Fault_list.class_of c r)) 0 reps
  in
  Alcotest.(check int) "partition covers universe" (2 * Netlist.num_nets net) total;
  let rep = Reference.representative_of (Fault_list.representative_indices c) in
  List.iter
    (fun r ->
      Alcotest.(check bool) "rep idempotent" true (rep r = r);
      List.iter
        (fun m -> Alcotest.(check bool) "member maps to rep" true (rep m = r))
        (Fault_list.class_of c r))
    reps

(* Semantic check: equivalent faults produce identical signatures. *)
let qcheck_equivalent_faults_same_signature =
  QCheck.Test.make ~name:"collapsed classes are behaviourally equivalent" ~count:10
    QCheck.(int_range 1 5000)
    (fun seed ->
      let net = Generators.random_logic ~gates:40 ~pis:5 ~pos:3 ~seed in
      let pats = Pattern.random (Rng.create seed) ~npis:5 ~count:32 in
      let c = Fault_list.collapse net in
      let sim = Reference.scalar net in
      List.for_all
        (fun r ->
          let sig_of f =
            Reference.signature sim pats ~site:f.Fault_list.site ~stuck:f.Fault_list.stuck
          in
          let ref_sig = sig_of r in
          List.for_all
            (fun m -> Array.for_all2 Bitvec.equal ref_sig (sig_of m))
            (Fault_list.class_of c r))
        (Fault_list.representatives c))

let test_pp () =
  let net = Generators.c17 () in
  let g16 = Option.get (Netlist.find net "G16") in
  Alcotest.(check string) "pp" "G16 sa1"
    (Fault_list.to_string net (fault g16 true))

let suite =
  [
    ( "fault_list",
      [
        Alcotest.test_case "inverter chain" `Quick test_inverter_chain_equivalence;
        Alcotest.test_case "and gate" `Quick test_and_gate_equivalence;
        Alcotest.test_case "nand polarity" `Quick test_nand_polarity;
        Alcotest.test_case "fanout blocks collapsing" `Quick test_fanout_blocks_collapsing;
        Alcotest.test_case "xor no collapsing" `Quick test_xor_no_collapsing;
        Alcotest.test_case "classes partition" `Quick test_classes_partition;
        Alcotest.test_case "pp" `Quick test_pp;
        QCheck_alcotest.to_alcotest qcheck_equivalent_faults_same_signature;
      ] );
  ]

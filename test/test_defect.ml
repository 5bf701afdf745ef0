(* Two-inverter circuit for precise overlay semantics: out1 = NOT a,
   out2 = NOT b. *)
let two_lane () =
  let b = Builder.create () in
  let a = Builder.input b "a" in
  let bb = Builder.input b "b" in
  let o1 = Builder.not_ b ~name:"o1" a in
  let o2 = Builder.not_ b ~name:"o2" bb in
  Builder.mark_output b o1;
  Builder.mark_output b o2;
  (Builder.finalize b, a, bb, o1, o2)

let responses net defects pats =
  Injection.observed_responses net pats defects

let test_stuck () =
  let net, _, _, o1, _ = two_lane () in
  let pats = Pattern.exhaustive ~npis:2 in
  let r = responses net [ Defect.Stuck (o1, true) ] pats in
  for p = 0 to 3 do
    Alcotest.(check bool) "o1 stuck 1" true (Bitvec.get r.(0) p);
    Alcotest.(check bool) "o2 normal" (p land 2 = 0) (Bitvec.get r.(1) p)
  done

let test_dominant_bridge () =
  let net, _, _, o1, o2 = two_lane () in
  let pats = Pattern.exhaustive ~npis:2 in
  let r =
    responses net [ Defect.Bridge { victim = o1; aggressor = o2; kind = Defect.Dominant } ] pats
  in
  for p = 0 to 3 do
    let b_v = p land 2 <> 0 in
    Alcotest.(check bool) "victim follows aggressor" (not b_v) (Bitvec.get r.(0) p);
    Alcotest.(check bool) "aggressor unchanged" (not b_v) (Bitvec.get r.(1) p)
  done

let test_wired_and_bridge () =
  let net, _, _, o1, o2 = two_lane () in
  let pats = Pattern.exhaustive ~npis:2 in
  let r =
    responses net [ Defect.Bridge { victim = o1; aggressor = o2; kind = Defect.Wired_and } ] pats
  in
  for p = 0 to 3 do
    let a_v = p land 1 <> 0 and b_v = p land 2 <> 0 in
    let anded = (not a_v) && not b_v in
    Alcotest.(check bool) "o1 wired" anded (Bitvec.get r.(0) p);
    Alcotest.(check bool) "o2 wired" anded (Bitvec.get r.(1) p)
  done

let test_wired_or_bridge () =
  let net, _, _, o1, o2 = two_lane () in
  let pats = Pattern.exhaustive ~npis:2 in
  let r =
    responses net [ Defect.Bridge { victim = o1; aggressor = o2; kind = Defect.Wired_or } ] pats
  in
  for p = 0 to 3 do
    let a_v = p land 1 <> 0 and b_v = p land 2 <> 0 in
    let ored = (not a_v) || not b_v in
    Alcotest.(check bool) "o1 wired" ored (Bitvec.get r.(0) p);
    Alcotest.(check bool) "o2 wired" ored (Bitvec.get r.(1) p)
  done

let test_open_cond () =
  (* o1 flips exactly when b = 1 (cond net is the PI b). *)
  let net, _, bb, o1, _ = two_lane () in
  let pats = Pattern.exhaustive ~npis:2 in
  let r = responses net [ Defect.Open_cond { site = o1; cond = bb; cond_v = true } ] pats in
  for p = 0 to 3 do
    let a_v = p land 1 <> 0 and b_v = p land 2 <> 0 in
    let expect = if b_v then a_v else not a_v in
    Alcotest.(check bool) "conditional flip" expect (Bitvec.get r.(0) p)
  done

(* The patterns of [pats] on which an [Intermittent] defect at [o1]
   flips it, read off the simulated responses. *)
let intermittent_flips ~salt ~rate_pct pats =
  let net, _, _, o1, _ = two_lane () in
  let good = responses net [] pats in
  let bad = responses net [ Defect.Intermittent { site = o1; salt; rate_pct } ] pats in
  List.filter
    (fun p -> Bitvec.get good.(0) p <> Bitvec.get bad.(0) p)
    (List.init (Pattern.count pats) Fun.id)

let random_pats seed count = Pattern.random (Rng.create seed) ~npis:2 ~count

let test_intermittent_deterministic () =
  let pats = random_pats 1 Bitvec.word_bits in
  let w1 = intermittent_flips ~salt:42 ~rate_pct:50 pats in
  let w2 = intermittent_flips ~salt:42 ~rate_pct:50 pats in
  Alcotest.(check (list int)) "deterministic" w1 w2;
  let w3 = intermittent_flips ~salt:43 ~rate_pct:50 pats in
  Alcotest.(check bool) "salt matters" true (w1 <> w3);
  Alcotest.(check (list int)) "rate 0 no flips" [] (intermittent_flips ~salt:1 ~rate_pct:0 pats);
  Alcotest.(check int) "rate 100 all flips" Bitvec.word_bits
    (List.length (intermittent_flips ~salt:1 ~rate_pct:100 pats))

let test_intermittent_rate () =
  (* Over many patterns the flip fraction approaches rate_pct. *)
  let n = 100 * Bitvec.word_bits in
  let flips = List.length (intermittent_flips ~salt:7 ~rate_pct:30 (random_pats 2 n)) in
  let rate = float_of_int flips /. float_of_int n in
  Alcotest.(check bool) "rate near 0.30" true (abs_float (rate -. 0.30) < 0.03)

let test_intermittent_in_circuit () =
  (* The flips are keyed by the pattern's index, not its values: two
     different pattern sets of one length flip the same indices, across
     several blocks. *)
  let n = 3 * Bitvec.word_bits in
  Alcotest.(check (list int)) "same indices"
    (intermittent_flips ~salt:5 ~rate_pct:50 (random_pats 3 n))
    (intermittent_flips ~salt:5 ~rate_pct:50 (random_pats 4 n))

let test_multiple_defects_interact () =
  (* Stuck + dominant bridge chained: o1 stuck 0, o2 follows o1 -> both 0
     everywhere. *)
  let net, _, _, o1, o2 = two_lane () in
  let pats = Pattern.exhaustive ~npis:2 in
  let r =
    responses net
      [
        Defect.Stuck (o1, false);
        Defect.Bridge { victim = o2; aggressor = o1; kind = Defect.Dominant };
      ]
      pats
  in
  for p = 0 to 3 do
    Alcotest.(check bool) "o1 zero" false (Bitvec.get r.(0) p);
    Alcotest.(check bool) "o2 follows" false (Bitvec.get r.(1) p)
  done

let test_nets_and_overridden () =
  let d1 = Defect.Stuck (3, true) in
  let d2 = Defect.Bridge { victim = 1; aggressor = 2; kind = Defect.Dominant } in
  let d3 = Defect.Bridge { victim = 1; aggressor = 2; kind = Defect.Wired_or } in
  let d4 = Defect.Open_cond { site = 5; cond = 6; cond_v = false } in
  let d5 = Defect.Intermittent { site = 7; salt = 1; rate_pct = 10 } in
  Alcotest.(check (list int)) "stuck nets" [ 3 ] (Defect.nets d1);
  Alcotest.(check (list int)) "bridge nets" [ 1; 2 ] (Defect.nets d2);
  Alcotest.(check (list int)) "dominant overrides victim" [ 1 ] (Defect.overridden d2);
  Alcotest.(check (list int)) "wired overrides both" [ 1; 2 ] (Defect.overridden d3);
  Alcotest.(check (list int)) "open nets" [ 5; 6 ] (Defect.nets d4);
  Alcotest.(check (list int)) "open overrides site" [ 5 ] (Defect.overridden d4);
  Alcotest.(check (list int)) "intermittent" [ 7 ] (Defect.overridden d5)

let suite =
  [
    ( "defect",
      [
        Alcotest.test_case "stuck" `Quick test_stuck;
        Alcotest.test_case "dominant bridge" `Quick test_dominant_bridge;
        Alcotest.test_case "wired-AND bridge" `Quick test_wired_and_bridge;
        Alcotest.test_case "wired-OR bridge" `Quick test_wired_or_bridge;
        Alcotest.test_case "conditional open" `Quick test_open_cond;
        Alcotest.test_case "intermittent word deterministic" `Quick
          test_intermittent_deterministic;
        Alcotest.test_case "intermittent rate" `Quick test_intermittent_rate;
        Alcotest.test_case "intermittent in circuit" `Quick test_intermittent_in_circuit;
        Alcotest.test_case "multiple defects interact" `Quick test_multiple_defects_interact;
        Alcotest.test_case "nets/overridden" `Quick test_nets_and_overridden;
      ] );
  ]

let net () = Generators.ripple_adder 8

(* One defect: the first draw of a multiplet is always placed, so this
   consumes the same stream as one draw. *)
let draw rng net mix = List.hd (Injection.random_defects rng net mix 1)

let kind_name = function
  | Defect.Stuck _ -> "stuck"
  | Defect.Bridge _ -> "bridge"
  | Defect.Open_cond _ -> "open"
  | Defect.Intermittent _ -> "intermittent"

let test_random_defect_site_not_pi () =
  let net = net () in
  let rng = Rng.create 31 in
  for _ = 1 to 200 do
    let d = draw rng net Injection.default_mix in
    List.iter
      (fun n -> Alcotest.(check bool) "not a PI" false (Netlist.is_pi net n))
      (Defect.overridden d)
  done

let test_mix_purity () =
  let net = net () in
  let rng = Rng.create 32 in
  List.iter
    (fun kind ->
      let mix = Option.get (Injection.mix_of_string kind) in
      for _ = 1 to 50 do
        let d = draw rng net mix in
        Alcotest.(check string) "kind" kind (kind_name d)
      done)
    [ "stuck"; "bridge"; "open"; "intermittent" ]

let test_mix_of_string () =
  Alcotest.(check bool) "mixed" true (Injection.mix_of_string "mixed" <> None);
  Alcotest.(check bool) "unknown" true (Injection.mix_of_string "junk" = None)

let test_companion_acyclic () =
  (* Bridge aggressors and open conditions are never downstream of the
     overridden site, so injected behaviour stays combinational. *)
  let net = net () in
  let rng = Rng.create 33 in
  for _ = 1 to 300 do
    let d = draw rng net Injection.default_mix in
    match d with
    | Defect.Bridge { victim; aggressor; _ } ->
      let reach = Netlist.fanout_reach net victim in
      Alcotest.(check bool) "aggressor upstream or parallel" false reach.(aggressor)
    | Defect.Open_cond { site; cond; _ } ->
      let reach = Netlist.fanout_reach net site in
      Alcotest.(check bool) "cond upstream or parallel" false reach.(cond)
    | Defect.Stuck _ | Defect.Intermittent _ -> ()
  done

let test_random_defects_disjoint () =
  let net = net () in
  let rng = Rng.create 34 in
  for _ = 1 to 50 do
    let defects = Injection.random_defects rng net Injection.default_mix 5 in
    Alcotest.(check int) "count" 5 (List.length defects);
    let overridden = List.concat_map Defect.overridden defects in
    Alcotest.(check int) "disjoint overrides" (List.length overridden)
      (List.length (List.sort_uniq compare overridden))
  done

let test_random_defects_tiny_circuit () =
  (* c17 has six non-PI nets; multiplicity 5 must still terminate thanks
     to the restart logic. *)
  let net = Generators.c17 () in
  let rng = Rng.create 35 in
  for _ = 1 to 100 do
    let defects = Injection.random_defects rng net Injection.default_mix 5 in
    Alcotest.(check int) "count" 5 (List.length defects)
  done

let test_observed_responses_change_something () =
  let net = net () in
  let rng = Rng.create 36 in
  let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:64 in
  let expected = Logic_sim.responses net pats in
  (* A stuck defect on a PO always changes some response under a random
     test set (both polarities appear across 64 patterns). *)
  let po = (Netlist.pos net).(0) in
  let observed = Injection.observed_responses net pats [ Defect.Stuck (po, true) ] in
  Alcotest.(check bool) "differs" false (Array.for_all2 Bitvec.equal expected observed)

let test_contributing_filters_masked () =
  (* Defect B is downstream-masked by defect A: stuck-at-0 on a net
     whose only reader is a net already stuck.  A contributes, B does
     not. *)
  let b = Builder.create () in
  let a = Builder.input b "a" in
  let n1 = Builder.not_ b ~name:"n1" a in
  let n2 = Builder.buf_ b ~name:"n2" n1 in
  Builder.mark_output b n2;
  let net = Builder.finalize b in
  let pats = Pattern.exhaustive ~npis:1 in
  let d_masked = Defect.Stuck (n1, true) in
  let d_dominant = Defect.Stuck (n2, false) in
  let contributing = Injection.contributing net pats [ d_masked; d_dominant ] in
  Alcotest.(check int) "only one contributes" 1 (List.length contributing);
  (match contributing with
  | [ Defect.Stuck (s, v) ] ->
    Alcotest.(check int) "the dominant one" n2 s;
    Alcotest.(check bool) "polarity" false v
  | _ -> Alcotest.fail "unexpected contributing set");
  (* Alone, the masked defect does contribute. *)
  Alcotest.(check int) "alone it contributes" 1
    (List.length (Injection.contributing net pats [ d_masked ]))

let test_default_mix_weights () =
  (* Drawing many defects from the default mix lands near the declared
     proportions. *)
  let net = net () in
  let rng = Rng.create 37 in
  let counts = Hashtbl.create 4 in
  let n = 2000 in
  for _ = 1 to n do
    let d = draw rng net Injection.default_mix in
    let k = kind_name d in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let frac k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts k)) /. float_of_int n in
  Alcotest.(check bool) "stuck ~30%" true (abs_float (frac "stuck" -. 0.30) < 0.05);
  Alcotest.(check bool) "bridge ~30%" true (abs_float (frac "bridge" -. 0.30) < 0.05);
  Alcotest.(check bool) "open ~25%" true (abs_float (frac "open" -. 0.25) < 0.05);
  Alcotest.(check bool) "intermittent ~15%" true
    (abs_float (frac "intermittent" -. 0.15) < 0.05)

let suite =
  [
    ( "injection",
      [
        Alcotest.test_case "sites are not PIs" `Quick test_random_defect_site_not_pi;
        Alcotest.test_case "mix purity" `Quick test_mix_purity;
        Alcotest.test_case "mix_of_string" `Quick test_mix_of_string;
        Alcotest.test_case "companion acyclic" `Quick test_companion_acyclic;
        Alcotest.test_case "disjoint overrides" `Quick test_random_defects_disjoint;
        Alcotest.test_case "tiny circuit placement" `Quick test_random_defects_tiny_circuit;
        Alcotest.test_case "observed responses change" `Quick
          test_observed_responses_change_something;
        Alcotest.test_case "contributing filters masked" `Quick
          test_contributing_filters_masked;
        Alcotest.test_case "default mix weights" `Quick test_default_mix_weights;
      ] );
  ]

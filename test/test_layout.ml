let test_deterministic () =
  let net = Generators.ripple_adder 8 in
  let a = Layout.synthesize net in
  let b = Layout.synthesize net in
  Netlist.iter_nets net (fun n ->
      Netlist.iter_nets net (fun m ->
          Alcotest.(check bool) "same distance" true
            (Layout.distance a n m = Layout.distance b n m)))

let test_columns_by_level () =
  let net = Generators.ripple_adder 8 in
  let l = Layout.synthesize net in
  (* x is the level and rows are one pitch apart: two nets are at
     least their level gap apart, and a whole number of pitches when
     they share a column. *)
  Netlist.iter_nets net (fun a ->
      Netlist.iter_nets net (fun b ->
          let gap = float_of_int (abs (Netlist.level net a - Netlist.level net b)) in
          let d = Layout.distance l a b in
          Alcotest.(check bool) "at least the level gap" true (d >= gap -. 1e-12);
          if gap = 0.0 then Alcotest.(check bool) "whole pitches" true (Float.is_integer d)))

let test_distance_metric () =
  let net = Generators.c17 () in
  let l = Layout.synthesize net in
  Netlist.iter_nets net (fun a ->
      Alcotest.(check bool) "self distance" true (Layout.distance l a a = 0.0);
      Netlist.iter_nets net (fun b ->
          Alcotest.(check bool) "symmetry" true
            (abs_float (Layout.distance l a b -. Layout.distance l b a) < 1e-12)))

let test_neighbors_sorted_and_bounded () =
  let net = Generators.ripple_adder 8 in
  let l = Layout.synthesize net in
  Netlist.iter_nets net (fun n ->
      let ns = Layout.neighbors l ~radius:2.0 n in
      Alcotest.(check bool) "excludes self" false (List.mem n ns);
      List.iter
        (fun m ->
          Alcotest.(check bool) "within radius" true (Layout.distance l n m <= 2.0))
        ns;
      (* ascending distance *)
      let ds = List.map (Layout.distance l n) ns in
      Alcotest.(check (list (float 1e-9))) "sorted" (List.sort compare ds) ds)

let test_neighbors_radius_monotone () =
  let net = Generators.alu 8 in
  let l = Layout.synthesize net in
  let n = (Netlist.pos net).(0) in
  let small = Layout.neighbors l ~radius:1.5 n in
  let big = Layout.neighbors l ~radius:3.0 n in
  Alcotest.(check bool) "monotone" true (List.length small <= List.length big);
  List.iter (fun m -> Alcotest.(check bool) "subset" true (List.mem m big)) small

let test_layout_constrained_injection () =
  let net = Generators.alu 8 in
  let placement = Layout.synthesize net in
  let layout = (placement, Layout.default_radius) in
  let rng = Rng.create 95 in
  let mix = Option.get (Injection.mix_of_string "bridge") in
  for _ = 1 to 100 do
    match Injection.random_defects ~layout rng net mix 1 with
    | [ Defect.Bridge { victim; aggressor; _ } ] ->
      Alcotest.(check bool) "adjacent" true
        (Layout.distance placement victim aggressor <= Layout.default_radius)
    | _ ->
      Alcotest.fail "bridge mix drew a non-bridge"
  done

let test_layout_aware_aggressor_filter () =
  (* With layout knowledge, every inferred aggressor is within radius of
     the victim. *)
  let net = Generators.alu 8 in
  let placement = Layout.synthesize net in
  let layout = (placement, Layout.default_radius) in
  let pats = Campaign.test_set net in
  let expected = Logic_sim.responses net pats in
  let rng = Rng.create 96 in
  let mix = Option.get (Injection.mix_of_string "bridge") in
  let config = { Noassume.default_config with layout = Some layout } in
  let checked = ref 0 in
  for _ = 1 to 10 do
    let defects = Injection.random_defects ~layout rng net mix 1 in
    let observed = Injection.observed_responses net pats defects in
    let dlog = Datalog.of_responses ~expected ~observed in
    if Datalog.num_failing dlog > 0 then begin
      let r = Noassume.diagnose_session ~config (Session.create net pats) dlog in
      List.iter
        (fun (c : Noassume.callout) ->
          List.iter
            (function
              | Noassume.Bridge_victim ags ->
                List.iter
                  (fun a ->
                    incr checked;
                    Alcotest.(check bool) "aggressor within radius" true
                      (Layout.distance placement c.site a <= Layout.default_radius))
                  ags
              | Noassume.Stuck_at _ | Noassume.Bridge_confirmed _ | Noassume.Byzantine
                -> ())
            c.models)
        r.Noassume.callouts
    end
  done;
  Alcotest.(check bool) "exercised" true (!checked > 0)

let suite =
  [
    ( "layout",
      [
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        Alcotest.test_case "columns by level" `Quick test_columns_by_level;
        Alcotest.test_case "distance metric" `Quick test_distance_metric;
        Alcotest.test_case "neighbors sorted/bounded" `Quick
          test_neighbors_sorted_and_bounded;
        Alcotest.test_case "radius monotone" `Quick test_neighbors_radius_monotone;
        Alcotest.test_case "layout-constrained injection" `Quick
          test_layout_constrained_injection;
        Alcotest.test_case "layout-aware aggressor filter" `Quick
          test_layout_aware_aggressor_filter;
      ] );
  ]

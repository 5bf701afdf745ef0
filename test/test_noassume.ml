let g net name = Option.get (Netlist.find net name)

let problem ?(net = Generators.c17 ()) ?(pats = Pattern.exhaustive ~npis:5) defects =
  let expected = Logic_sim.responses net pats in
  let observed = Injection.observed_responses net pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  (net, pats, dlog)

let test_single_stuck_exact_localisation () =
  let net = Generators.c17 () in
  let g16 = g net "G16" in
  let net, pats, dlog = problem ~net [ Defect.Stuck (g16, true) ] in
  let r = Noassume.diagnose_session (Session.create net pats) dlog in
  (* G16 sa1 collapses with G2 sa0 etc.; the callout must be in the
     equivalence neighbourhood, and scored as a hit. *)
  let q =
    Metrics.evaluate net ~injected:[ Defect.Stuck (g16, true) ]
      ~callouts:(Noassume.callout_nets r)
  in
  Alcotest.(check bool) "hit" true q.Metrics.success;
  Alcotest.(check bool) "perfect score" true (Scoring.penalty r.Noassume.score = 0);
  Alcotest.(check int) "single callout" 1 (List.length r.Noassume.callouts)

let test_two_disjoint_stucks () =
  (* Stucks in the disjoint cones of an 8-bit adder: both located. *)
  let net = Generators.ripple_adder 8 in
  let s0 = g net "fa0_axb" in
  let s7 = g net "fa7_axb" in
  let pats = Pattern.random (Rng.create 61) ~npis:(Netlist.num_pis net) ~count:64 in
  let defects = [ Defect.Stuck (s0, true); Defect.Stuck (s7, false) ] in
  let net, pats, dlog = problem ~net ~pats defects in
  let r = Noassume.diagnose_session (Session.create net pats) dlog in
  let q = Metrics.evaluate net ~injected:defects ~callouts:(Noassume.callout_nets r) in
  Alcotest.(check bool) "both found" true q.Metrics.success;
  Alcotest.(check bool) "diagnosability 1" true (q.Metrics.diagnosability = 1.0)

let test_deterministic () =
  let net = Generators.c17 () in
  let defects = [ Defect.Stuck (g net "G10", true); Defect.Stuck (g net "G19", false) ] in
  let net, pats, dlog = problem ~net defects in
  let a = Noassume.diagnose_session (Session.create net pats) dlog in
  let b = Noassume.diagnose_session (Session.create net pats) dlog in
  Alcotest.(check bool) "same multiplet" true (a.Noassume.multiplet = b.Noassume.multiplet);
  Alcotest.(check bool) "same callouts" true
    (Noassume.callout_nets a = Noassume.callout_nets b)

let test_dominant_bridge_confirmed () =
  (* The bridge validation pass should find the aggressor of a dominant
     bridge. *)
  let net = Generators.ripple_adder 8 in
  let victim = g net "fa3_axb" in
  let aggressor = g net "fa1_c1" in
  let pats = Pattern.random (Rng.create 62) ~npis:(Netlist.num_pis net) ~count:96 in
  let defects = [ Defect.Bridge { victim; aggressor; kind = Defect.Dominant } ] in
  let net, pats, dlog = problem ~net ~pats defects in
  let r = Noassume.diagnose_session (Session.create net pats) dlog in
  let q = Metrics.evaluate net ~injected:defects ~callouts:(Noassume.callout_nets r) in
  Alcotest.(check bool) "victim located" true (q.Metrics.hits = 1)

let test_intermittent_byzantine_callout () =
  let net = Generators.c17 () in
  let g11 = g net "G11" in
  let defects = [ Defect.Intermittent { site = g11; salt = 9; rate_pct = 50 } ] in
  let net, pats, dlog = problem ~net defects in
  let r = Noassume.diagnose_session (Session.create net pats) dlog in
  let q = Metrics.evaluate net ~injected:defects ~callouts:(Noassume.callout_nets r) in
  Alcotest.(check bool) "site located" true (q.Metrics.hits = 1)

let test_empty_datalog () =
  let net = Generators.c17 () in
  let pats = Pattern.exhaustive ~npis:5 in
  let r = Logic_sim.responses net pats in
  let dlog = Datalog.of_responses ~expected:r ~observed:r in
  let result = Noassume.diagnose_session (Session.create net pats) dlog in
  Alcotest.(check int) "empty multiplet" 0 (List.length result.Noassume.multiplet);
  Alcotest.(check int) "no callouts" 0 (List.length result.Noassume.callouts);
  Alcotest.(check bool) "perfect trivially" true (Scoring.penalty result.Noassume.score = 0)

(* A die that needs more sites than the cap: sixteen inverters, each
   PI to its own PO, stuck at 1 on fourteen of the inputs, so every
   site explains only its own output's failures.  The greedy cover
   stops at the cap with the die partly covered; refinement may drop
   members, never add one. *)
let test_max_multiplet_respected () =
  let b = Builder.create () in
  let inputs = List.init 16 (fun i -> Builder.input b (Printf.sprintf "a%d" i)) in
  List.iter (fun a -> Builder.mark_output b (Builder.not_ b a)) inputs;
  let net = Builder.finalize b in
  let pats = Pattern.random (Rng.create 63) ~npis:16 ~count:64 in
  let defects = List.filteri (fun i _ -> i < 14) inputs in
  let net, pats, dlog =
    problem ~net ~pats (List.map (fun a -> Defect.Stuck (a, true)) defects)
  in
  let session = Session.create net pats in
  let greedy =
    Noassume.diagnose_session
      ~config:{ Noassume.default_config with validate = false }
      session dlog
  in
  Alcotest.(check int) "greedy stops at the cap" Noassume.max_multiplet
    (List.length greedy.Noassume.multiplet);
  Alcotest.(check bool) "some failures left unexplained" true
    (greedy.Noassume.score.Scoring.missed > 0);
  let r = Noassume.diagnose_session session dlog in
  Alcotest.(check bool) "capped" true
    (List.length r.Noassume.multiplet <= Noassume.max_multiplet)

let test_config_variants_run () =
  (* Every ablation configuration completes and produces a result on an
     interacting 3-defect case. *)
  let net = Generators.ripple_adder 8 in
  let rng = Rng.create 64 in
  let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:64 in
  let defects = Injection.random_defects rng net Injection.default_mix 3 in
  let net, pats, dlog = problem ~net ~pats defects in
  List.iter
    (fun config ->
      let r = Noassume.diagnose_session ~config (Session.create net pats) dlog in
      Alcotest.(check bool) "has candidates" true (r.Noassume.candidates_considered > 0))
    [
      Noassume.default_config;
      { Noassume.default_config with validate = false };
      { Noassume.default_config with tie_break = false };
      { Noassume.default_config with per_pattern = true };
    ]

let test_callout_order_by_explained () =
  let net = Generators.ripple_adder 8 in
  let rng = Rng.create 65 in
  let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:64 in
  let defects = Injection.random_defects rng net Injection.default_mix 3 in
  let net, pats, dlog = problem ~net ~pats defects in
  let r = Noassume.diagnose_session (Session.create net pats) dlog in
  let explained = List.map (fun c -> c.Noassume.explained_obs) r.Noassume.callouts in
  Alcotest.(check (list int)) "descending" (List.sort (fun a b -> compare b a) explained)
    explained

let test_refinement_never_worsens () =
  (* With validation on, the final score's penalty is never worse than
     the raw greedy multiplet's. *)
  let net = Generators.ripple_adder 8 in
  let rng = Rng.create 66 in
  let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:64 in
  for _ = 1 to 5 do
    let defects = Injection.random_defects rng net Injection.default_mix 3 in
    let expected = Logic_sim.responses net pats in
    let observed = Injection.observed_responses net pats defects in
    let dlog = Datalog.of_responses ~expected ~observed in
    if Datalog.num_failing dlog > 0 then begin
      let m = Explain.build_session (Session.create net pats) dlog in
      let raw =
        Noassume.diagnose_matrix
          ~config:{ Noassume.default_config with validate = false }
          m
      in
      let refined = Noassume.diagnose_matrix m in
      Alcotest.(check bool) "refinement helps or holds" true
        (Scoring.penalty refined.Noassume.score <= Scoring.penalty raw.Noassume.score)
    end
  done

(* [Noassume]'s aggressor ranking on the per-aggressor screen: the
   hard filter (the aggressor carries the needed value
   of [site] on every failing pattern a member at [site] explains, the
   later member taking a pattern two of them need), each survivor's
   penalty from {!Reference.screen_per_aggressor}, the best 16.
   Members come in multiplet order here and in refinement order in
   [Noassume]; the two differ only where a site's opposite polarities
   both explain one failing pattern. *)
let per_aggressor_ranking session m (r : Noassume.result) site =
  let { Reference.goods; _ } =
    Reference.good (Session.netlist session) (Session.patterns session)
  in
  let obs = Explain.observations m in
  let nblocks = Array.length goods in
  let need_mask = Array.make nblocks 0 and need_val = Array.make nblocks 0 in
  List.iter
    (fun (f : Fault_list.fault) ->
      if f.site = site then
        Bitvec.iter_set
          (Explain.covers m (Option.get (Explain.find_candidate m f)))
          (fun oi ->
            let p = obs.(oi).Datalog.pattern in
            let bi = p / Bitvec.word_bits and bit = 1 lsl (p mod Bitvec.word_bits) in
            need_mask.(bi) <- need_mask.(bi) lor bit;
            need_val.(bi) <-
              (if f.stuck then need_val.(bi) lor bit else need_val.(bi) land lnot bit)))
    r.multiplet;
  let survivors =
    List.filter
      (fun a ->
        a <> site
        && Array.for_all Fun.id
             (Array.mapi
                (fun bi g -> (g.(a) lxor need_val.(bi)) land need_mask.(bi) = 0)
                goods))
      (List.init (Netlist.num_nets (Session.netlist session)) Fun.id)
  in
  if Array.for_all (fun w -> w = 0) need_mask then []
  else
    let scores =
      Reference.screen_per_aggressor session (Explain.datalog m) ~victim:site survivors
    in
    List.map2
      (fun (s : Scoring.score) a ->
        ((10 * s.missed) + s.spurious_fail + s.spurious_pass, a))
      scores survivors
    |> List.sort compare
    |> List.filteri (fun i _ -> i < 16)
    |> List.map snd

(* Every bridge-victim list of a report equals the per-aggressor
   ranking.  Those lists are all the screen feeds — bridge validation
   tries exactly their heads — so equal lists mean the whole report is
   the one the per-aggressor screen produced.  Three-defect rnd1k dies
   on the campaign test set, as the counter gate draws them. *)
let test_reports_match_per_aggressor_screen () =
  With_domains.run 1 @@ fun () ->
  let net = Option.get (Generators.find_suite "rnd1k") in
  let pats = Campaign.test_set net in
  let session = Session.create net pats in
  let expected = Logic_sim.responses net pats in
  let rng = Rng.create 41 in
  let rec die attempts =
    let defects = Injection.random_defects rng net Injection.default_mix 3 in
    let observed = Injection.observed_responses net pats defects in
    let dlog = Datalog.of_responses ~expected ~observed in
    if Datalog.num_failing dlog > 0 || attempts = 0 then dlog else die (attempts - 1)
  in
  let lists = ref 0 in
  for _ = 1 to 3 do
    let dlog = die 50 in
    let r = Noassume.diagnose_session session dlog in
    let m = Explain.build_session session dlog in
    List.iter
      (fun (c : Noassume.callout) ->
        let got =
          List.concat_map
            (function
              | Noassume.Bridge_victim ags -> ags
              | Noassume.Stuck_at _ | Noassume.Bridge_confirmed _ | Noassume.Byzantine ->
                [])
            c.models
        in
        if got <> [] then incr lists;
        Alcotest.(check (list int))
          (Printf.sprintf "aggressors of %s" (Netlist.name net c.site))
          (per_aggressor_ranking session m r c.site)
          got)
      r.callouts
  done;
  Alcotest.(check bool) "some bridge-victim callouts" true (!lists > 0)

let suite =
  [
    ( "noassume",
      [
        Alcotest.test_case "single stuck exact" `Quick test_single_stuck_exact_localisation;
        Alcotest.test_case "two disjoint stucks" `Quick test_two_disjoint_stucks;
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        Alcotest.test_case "dominant bridge located" `Quick test_dominant_bridge_confirmed;
        Alcotest.test_case "intermittent byzantine" `Quick test_intermittent_byzantine_callout;
        Alcotest.test_case "empty datalog" `Quick test_empty_datalog;
        Alcotest.test_case "max multiplet respected" `Quick test_max_multiplet_respected;
        Alcotest.test_case "config variants run" `Quick test_config_variants_run;
        Alcotest.test_case "callout order" `Quick test_callout_order_by_explained;
        Alcotest.test_case "refinement never worsens" `Quick test_refinement_never_worsens;
        Alcotest.test_case "reports = per-aggressor screen (rnd1k)" `Quick
          test_reports_match_per_aggressor_screen;
      ] );
  ]

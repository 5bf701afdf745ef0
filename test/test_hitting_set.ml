(* The implicit hitting-set backend against the direct branch-and-bound
   oracle, and the byte-identity contract of [--cover=exact]:

   - on every qcheck instance the loop's proven minimum must equal the
     minimum [Reference.exact_cover] finds by materialising the whole
     matrix up front, and the returned cover must actually cover every
     coverable observation at exactly that cardinality;
   - seeded with the greedy cover the result can never be larger than
     the seed;
   - when greedy stops at its multiplet cap short of a cover, the loop
     searches up to the cap on its own: it proves a cover within the
     cap, or claims no minimum and leaves the greedy report as it is;
   - when the exact backend proves the greedy cover minimal (or runs
     out of budget and falls back), the rendered [Noassume] report must
     be byte-identical to the greedy backend's — the exact path may
     only ever substitute a strictly smaller proven cover. *)

let c17 = lazy (Generators.c17 ())
let solve = Hitting_set.solve ~node_budget:Hitting_set.default_node_budget
let c17_pats = lazy (Pattern.exhaustive ~npis:5)

let make_dlog seed multiplicity =
  let net = Lazy.force c17 and pats = Lazy.force c17_pats in
  let expected = Logic_sim.responses net pats in
  let rng = Rng.create seed in
  let rec draw attempts =
    if attempts = 0 then None
    else begin
      let defects = Injection.random_defects rng net Injection.default_mix multiplicity in
      let observed = Injection.observed_responses net pats defects in
      let dlog = Datalog.of_responses ~expected ~observed in
      if Datalog.num_failing dlog = 0 then draw (attempts - 1) else Some dlog
    end
  in
  draw 20

(* The engine's multiplet cap, which [Noassume] passes as [max_size]. *)
let max_size = Noassume.max_multiplet

let coverable_covered m cover =
  let nobs = Array.length (Explain.observations m) in
  let ncand = Array.length (Explain.candidates m) in
  let coverable = Bitvec.create nobs in
  for c = 0 to ncand - 1 do
    Bitvec.union_into ~dst:coverable (Explain.covers m c)
  done;
  let covered = Bitvec.create nobs in
  List.iter (fun c -> Bitvec.union_into ~dst:covered (Explain.covers m c)) cover;
  Bitvec.inter_into ~dst:covered coverable;
  Bitvec.popcount covered = Bitvec.popcount coverable

(* The candidate indices of a [Noassume] multiplet. *)
let multiplet_ids m r = List.filter_map (Explain.find_candidate m) r.Noassume.multiplet

(* The loop's proven minimum is exactly the direct solver's minimum, on
   every random instance the direct solver can finish. *)
let prop_oracle =
  QCheck.Test.make ~name:"hitting-set minimum = direct exact-cover minimum" ~count:25
    QCheck.(pair (int_range 1 100_000) (int_range 1 3))
    (fun (seed, multiplicity) ->
      match make_dlog seed multiplicity with
      | None -> true
      | Some dlog ->
        let net = Lazy.force c17 and pats = Lazy.force c17_pats in
        let m = Explain.build_session (Session.create net pats) dlog in
        let direct = Reference.exact_cover m in
        (match (direct.Reference.complete, direct.Reference.minimum) with
        | true, Some k ->
          let hs = solve ~max_size m in
          hs.Hitting_set.complete
          && hs.Hitting_set.minimum = Some k
          && List.length hs.Hitting_set.cover = k
          && coverable_covered m hs.Hitting_set.cover
        | _ -> true))

(* Seeded with the greedy cover, the result never exceeds the seed and
   still matches the direct oracle's minimum.  Greedy capped at one
   member ([Reference.greedy_cover], the oracle of [Noassume]'s greedy
   pass, whose own cap is fixed) seeds a partial cover whenever one
   pick leaves something uncovered; the loop then searches up to that cap on its own and
   proves the oracle's minimum if it fits, and no cover otherwise. *)
let prop_seeded_never_larger =
  QCheck.Test.make ~name:"greedy-seeded hitting set: never larger, same minimum"
    ~count:25
    QCheck.(pair (int_range 1 100_000) (int_range 1 3))
    (fun (seed, multiplicity) ->
      match make_dlog seed multiplicity with
      | None -> true
      | Some dlog ->
        let net = Lazy.force c17 and pats = Lazy.force c17_pats in
        let m = Explain.build_session (Session.create net pats) dlog in
        let greedy =
          Noassume.diagnose_matrix
            ~config:{ Noassume.default_config with validate = false }
            m
        in
        let seed_ids = multiplet_ids m greedy in
        let hs = solve ~max_size ~seed:seed_ids m in
        let capped_ids = Reference.greedy_cover ~tie_break:true ~max_multiplet:1 m in
        let hs1 = solve ~max_size:1 ~seed:capped_ids m in
        let reach =
          if coverable_covered m capped_ids then List.length capped_ids else 1
        in
        List.length hs.Hitting_set.cover <= List.length seed_ids
        && hs1.Hitting_set.complete
        && List.length hs1.Hitting_set.cover <= max 1 (List.length capped_ids)
        &&
        let direct = Reference.exact_cover m in
        (match (direct.Reference.complete, direct.Reference.minimum) with
        | true, Some k ->
          hs.Hitting_set.minimum = Some k
          && hs1.Hitting_set.minimum = (if k <= reach then Some k else None)
        | _ -> true))

(* Greedy and exact on one session at one domain: the backend is each
   call's, so the pair shares the problem, its cache included. *)
let both_backends ?(budget = Hitting_set.default_node_budget) config dlog =
  With_domains.run 1 @@ fun () ->
  let session = Session.create (Lazy.force c17) (Lazy.force c17_pats) in
  let diagnose cover = Noassume.diagnose_session ~config:{ config with cover } session dlog in
  (diagnose Noassume.Greedy, diagnose (Noassume.Exact budget))

(* When the exact backend proves the greedy cover already minimal, the
   whole downstream pipeline sees the identical chosen list — the
   rendered reports must match byte for byte. *)
let prop_byte_identity_when_greedy_minimal =
  QCheck.Test.make
    ~name:"greedy-minimal instances: exact report byte-identical to greedy" ~count:15
    QCheck.(pair (int_range 1 100_000) (int_range 1 3))
    (fun (seed, multiplicity) ->
      match make_dlog seed multiplicity with
      | None -> true
      | Some dlog ->
        let net = Lazy.force c17 in
        let config = { Noassume.default_config with validate = false } in
        let greedy_r, exact_r = both_backends config dlog in
        (* Exact never produces a larger multiplet. *)
        List.length exact_r.Noassume.multiplet
        <= List.length greedy_r.Noassume.multiplet
        &&
        (match exact_r.Noassume.cover_minimum with
        | Some k when k = List.length greedy_r.Noassume.multiplet ->
          String.equal
            (Report.render net greedy_r)
            (Report.render net exact_r)
        | _ -> true))

(* A c17 die with a stuck-at-1 on each named net, and its matrix. *)
let stuck_die names =
  let net = Lazy.force c17 and pats = Lazy.force c17_pats in
  let g name = Option.get (Netlist.find net name) in
  let expected = Logic_sim.responses net pats in
  let observed =
    Injection.observed_responses net pats
      (List.map (fun name -> Defect.Stuck (g name, true)) names)
  in
  let dlog = Datalog.of_responses ~expected ~observed in
  (Explain.build_session (Session.create net pats) dlog, dlog)

let test_single_stuck_byte_identity () =
  let net = Lazy.force c17 in
  let _, dlog = stuck_die [ "G16" ] in
  let greedy_r, exact_r = both_backends Noassume.default_config dlog in
  Alcotest.(check bool) "complete" true exact_r.Noassume.cover_complete;
  Alcotest.(check (option int)) "minimum 1" (Some 1) exact_r.Noassume.cover_minimum;
  Alcotest.(check string) "byte-identical report"
    (Report.render net greedy_r)
    (Report.render net exact_r);
  Alcotest.(check (option int)) "greedy reports no minimum" None
    greedy_r.Noassume.cover_minimum;
  Alcotest.(check bool) "greedy complete" true greedy_r.Noassume.cover_complete

(* Greedy capped at one member ([Reference.greedy_cover], the oracle of
   [Noassume]'s greedy pass) and the loop searching within that cap:
   the instance [Noassume]'s exact backend solves when a die needs more
   sites than its cap. *)
let capped_at_one m =
  let seed = Reference.greedy_cover ~tie_break:true ~max_multiplet:1 m in
  (seed, solve ~max_size:1 ~seed m)

(* Capped at one member on a die that needs two sites: greedy stops at
   the cap with a partial cover, and the loop finds no cover within it,
   claims nothing and returns the seed, so [Noassume] keeps the greedy
   multiplet and renders the greedy backend's report. *)
let test_cap_below_minimum () =
  let m, _ = stuck_die [ "G1"; "G3" ] in
  let direct = Reference.exact_cover m in
  Alcotest.(check (option int)) "die needs two sites" (Some 2) direct.Reference.minimum;
  let seed, hs = capped_at_one m in
  Alcotest.(check bool) "greedy stopped short" false (coverable_covered m seed);
  Alcotest.(check bool) "complete" true hs.Hitting_set.complete;
  Alcotest.(check (option int)) "no cover within the cap" None hs.Hitting_set.minimum;
  Alcotest.(check (list int)) "the greedy multiplet stands" seed hs.Hitting_set.cover

(* Capped at one member on a die one site covers, but not the site
   greedy picks first: the seed is partial, and the loop proves the
   one-member cover within the cap. *)
let test_partial_seed_proven () =
  let m, _ = stuck_die [ "G1"; "G2" ] in
  let direct = Reference.exact_cover m in
  Alcotest.(check (option int)) "one site covers" (Some 1) direct.Reference.minimum;
  let seed, hs = capped_at_one m in
  Alcotest.(check bool) "partial seed" false (coverable_covered m seed);
  Alcotest.(check bool) "complete" true hs.Hitting_set.complete;
  Alcotest.(check (option int)) "proven minimum" (Some 1) hs.Hitting_set.minimum;
  Alcotest.(check bool) "within the cap" true (List.length hs.Hitting_set.cover <= 1);
  Alcotest.(check bool) "covers the die" true (coverable_covered m hs.Hitting_set.cover)

(* Budget exhaustion: fall back to the greedy cover with
   [cover_complete = false] — the report stays byte-identical to the
   greedy backend's, never silently truncated or partial. *)
let test_budget_fallback_byte_identity () =
  let net = Lazy.force c17 in
  match make_dlog 4242 3 with
  | None -> Alcotest.fail "no failing c17 datalog"
  | Some dlog ->
    let greedy_r, exact_r = both_backends ~budget:1 Noassume.default_config dlog in
    Alcotest.(check string) "byte-identical report"
      (Report.render net greedy_r)
      (Report.render net exact_r);
    if List.length greedy_r.Noassume.multiplet >= 2 then begin
      Alcotest.(check bool) "fallback flagged" false exact_r.Noassume.cover_complete;
      Alcotest.(check (option int)) "no minimality claim" None
        exact_r.Noassume.cover_minimum
    end

let test_empty_instance () =
  let net = Lazy.force c17 and pats = Lazy.force c17_pats in
  let resp = Logic_sim.responses net pats in
  let dlog = Datalog.of_responses ~expected:resp ~observed:resp in
  let m = Explain.build_session (Session.create net pats) dlog in
  let r = solve ~max_size m in
  Alcotest.(check bool) "complete" true r.Hitting_set.complete;
  Alcotest.(check (option int)) "minimum 0" (Some 0) r.Hitting_set.minimum;
  Alcotest.(check bool) "empty cover" true (r.Hitting_set.cover = [])

let suite =
  [
    ( "hitting_set",
      [
        QCheck_alcotest.to_alcotest prop_oracle;
        QCheck_alcotest.to_alcotest prop_seeded_never_larger;
        QCheck_alcotest.to_alcotest prop_byte_identity_when_greedy_minimal;
        Alcotest.test_case "single stuck byte identity" `Quick
          test_single_stuck_byte_identity;
        Alcotest.test_case "budget fallback byte identity" `Quick
          test_budget_fallback_byte_identity;
        Alcotest.test_case "empty instance" `Quick test_empty_instance;
        Alcotest.test_case "cap below the minimum" `Quick test_cap_below_minimum;
        Alcotest.test_case "partial seed proven" `Quick test_partial_seed_proven;
      ] );
  ]

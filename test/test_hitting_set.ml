(* The implicit hitting-set backend against the direct branch-and-bound
   oracle, and the byte-identity contract of [--cover=exact]:

   - on every qcheck instance the loop's proven minimum must equal the
     minimum [Exact_cover.solve] finds by materialising the whole
     matrix up front, and the returned cover must actually cover every
     coverable observation at exactly that cardinality;
   - seeded with the greedy cover the result can never be larger than
     the seed;
   - when the exact backend proves the greedy cover minimal (or runs
     out of budget and falls back), the rendered [Noassume] report must
     be byte-identical to the greedy backend's — the exact path may
     only ever substitute a strictly smaller proven cover. *)

let c17 = lazy (Generators.c17 ())
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
        let direct = Exact_cover.solve m in
        (match (direct.Exact_cover.complete, direct.Exact_cover.minimum) with
        | true, Some k ->
          let hs = Hitting_set.solve m in
          hs.Hitting_set.complete
          && hs.Hitting_set.minimum = Some k
          && List.length hs.Hitting_set.cover = k
          && coverable_covered m hs.Hitting_set.cover
        | _ -> true))

(* Seeded with the greedy cover, the result never exceeds the seed and
   still matches the direct oracle's minimum. *)
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
        let seed_ids =
          List.filter_map (Explain.find_candidate m) greedy.Noassume.multiplet
        in
        let hs = Hitting_set.solve ~seed:seed_ids m in
        List.length hs.Hitting_set.cover <= List.length seed_ids
        &&
        let direct = Exact_cover.solve m in
        (match (direct.Exact_cover.complete, direct.Exact_cover.minimum) with
        | true, Some k -> hs.Hitting_set.minimum = Some k
        | _ -> true))

let cold_session cover =
  Session.create
    ~config:{ Session.default_config with Session.domains = Some 1; cover }
    (Lazy.force c17) (Lazy.force c17_pats)

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
        let greedy_r =
          Noassume.diagnose_session ~config (cold_session Session.Greedy) dlog
        in
        let exact_r =
          Noassume.diagnose_session ~config (cold_session Session.Exact) dlog
        in
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

let test_single_stuck_byte_identity () =
  let net = Lazy.force c17 and pats = Lazy.force c17_pats in
  let g name = Option.get (Netlist.find net name) in
  let expected = Logic_sim.responses net pats in
  let observed =
    Injection.observed_responses net pats [ Defect.Stuck (g "G16", true) ]
  in
  let dlog = Datalog.of_responses ~expected ~observed in
  let greedy_r = Noassume.diagnose_session (cold_session Session.Greedy) dlog in
  let exact_r = Noassume.diagnose_session (cold_session Session.Exact) dlog in
  Alcotest.(check bool) "complete" true exact_r.Noassume.cover_complete;
  Alcotest.(check (option int)) "minimum 1" (Some 1) exact_r.Noassume.cover_minimum;
  Alcotest.(check string) "byte-identical report"
    (Report.render net greedy_r)
    (Report.render net exact_r);
  Alcotest.(check (option int)) "greedy reports no minimum" None
    greedy_r.Noassume.cover_minimum;
  Alcotest.(check bool) "greedy complete" true greedy_r.Noassume.cover_complete

(* Budget exhaustion: fall back to the greedy cover with
   [cover_complete = false] — the report stays byte-identical to the
   greedy backend's, never silently truncated or partial. *)
let test_budget_fallback_byte_identity () =
  let net = Lazy.force c17 in
  match make_dlog 4242 3 with
  | None -> Alcotest.fail "no failing c17 datalog"
  | Some dlog ->
    let greedy_r = Noassume.diagnose_session (cold_session Session.Greedy) dlog in
    let starved =
      Session.create
        ~config:
          { Session.domains = Some 1; cover = Session.Exact; cover_budget = 1 }
        (Lazy.force c17) (Lazy.force c17_pats)
    in
    let exact_r = Noassume.diagnose_session starved dlog in
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
  let r = Hitting_set.solve m in
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
      ] );
  ]

type methods = { run_noassume : bool; run_slat : bool; run_single : bool }

let all_methods = { run_noassume = true; run_slat = true; run_single = true }
let only_noassume = { run_noassume = true; run_slat = false; run_single = false }
let classification_only = { run_noassume = false; run_slat = false; run_single = false }

type outcome = {
  defects : Defect.t list;
  num_failing : int;
  slat_fraction : float;
  noassume : Metrics.quality option;
  slat : Metrics.quality option;
  single : Metrics.quality option;
}

type t = { circuit : string; outcomes : outcome list; redraws : int }

(* The campaign ATPG flow's parameters; a stored test set's origin
   names them. *)
let flow_seed = 1
let flow_backtrack_limit = 128

(* What a generated set answers for, beside the netlist's source: the
   parameters that steer the flow.  A flow change that keeps these
   bumps [Tpg.flow_version]. *)
let atpg_origin =
  Printf.sprintf "atpg seed=%d random=%d backtrack=%d flow=%d" flow_seed
    Tpg.random_budget flow_backtrack_limit Tpg.flow_version

let test_report_cache : (Netlist.t * Tpg.report) list ref = ref []

let test_report net =
  match List.find_opt (fun (n, _) -> n == net) !test_report_cache with
  | Some (_, report) -> report
  | None ->
    let report =
      Tpg.generate ~seed:flow_seed ~backtrack_limit:flow_backtrack_limit net
    in
    let report =
      { report with Tpg.patterns = Pattern.with_origin atpg_origin report.Tpg.patterns }
    in
    test_report_cache := (net, report) :: !test_report_cache;
    report

let test_set net = (test_report net).Tpg.patterns

let max_redraws_per_trial = 50

(* Redraw until the injected combination actually fails the test. *)
let failing_die ?(mix = Injection.default_mix) ?layout rng net pats ~expected
    ~multiplicity =
  let rec draw attempts redrawn =
    if attempts = 0 then (None, redrawn)
    else begin
      let defects = Injection.random_defects ?layout rng net mix multiplicity in
      let observed = Injection.observed_responses net pats defects in
      let dlog = Datalog.of_responses ~expected ~observed in
      if Datalog.num_failing dlog = 0 then draw (attempts - 1) (redrawn + 1)
      else (Some (defects, dlog), redrawn)
    end
  in
  draw max_redraws_per_trial 0

let c_trials = Obs.counter "campaign.trials"
let c_redraws = Obs.counter "campaign.redraws"
let c_masked_trials = Obs.counter "campaign.masked_trials"

let run ?(methods = all_methods) ?(config = Noassume.default_config)
    ?(mix = Injection.default_mix) ?patterns ?layout ?domains ~name net ~multiplicity
    ~trials ~seed =
  assert (multiplicity >= 1 && trials >= 1);
  let pats = match patterns with Some p -> p | None -> test_set net in
  let expected = Logic_sim.responses net pats in
  let rng = Rng.create seed in
  (* One generator per trial, split in trial order before any trial runs:
     trial [t] draws the same defects whatever the domain count. *)
  let trial_rngs = Array.init trials (fun _ -> Rng.split rng) in
  (* One warm session for the whole cell: every trial shares the goods,
     the PO-reach screen and the signature-cache instance (trials differ
     only in the datalog — exactly the cross-trial reuse the cache
     exists for).  The session is immutable, so parallel trials share it
     safely.  With several trials in flight, each trial's own simulation
     kernels run inline ([Parallel]'s nesting rule) — trial-level
     parallelism is the outer loop and scales best; a single trial still
     fans out its kernels. *)
  let session = Session.create net pats in
  let run_trial trial_rng =
    match failing_die ~mix ?layout trial_rng net pats ~expected ~multiplicity with
    | None, redrawn -> (None, redrawn)
    | Some (defects, dlog), redrawn ->
      (* Score against the defects that left a trace; fully masked ones
         are invisible to any diagnosis. *)
      let defects = Injection.contributing net pats defects in
      let matrix = Explain.build_session session dlog in
      let classification = Slat.classify matrix in
      let noassume =
        if methods.run_noassume then begin
          let r = Noassume.diagnose_matrix ~config matrix in
          Some
            (Metrics.evaluate net ~injected:defects ~callouts:(Noassume.callout_nets r))
        end
        else None
      in
      let slat =
        if methods.run_slat then begin
          let r = Slat_diag.diagnose matrix in
          Some
            (Metrics.evaluate net ~injected:defects ~callouts:(Slat_diag.callout_nets r))
        end
        else None
      in
      let single =
        if methods.run_single then begin
          let r = Single_diag.diagnose_session session dlog in
          Some
            (Metrics.evaluate net ~injected:defects ~callouts:(Single_diag.callout_nets r))
        end
        else None
      in
      ( Some
          {
            defects;
            num_failing = Datalog.num_failing dlog;
            slat_fraction = Slat.slat_fraction classification;
            noassume;
            slat;
            single;
          },
        redrawn )
  in
  let results = Obs.phase "campaign-trials" (fun () -> Parallel.map_array ?domains run_trial trial_rngs) in
  let outcomes = List.filter_map fst (Array.to_list results) in
  let redraws = Array.fold_left (fun acc (_, r) -> acc + r) 0 results in
  if Obs.enabled () then begin
    Obs.add c_trials trials;
    Obs.add c_redraws redraws;
    Obs.add c_masked_trials (trials - List.length outcomes)
  end;
  { circuit = name; outcomes; redraws }

let mean_slat_fraction t = Stats.mean (List.map (fun o -> o.slat_fraction) t.outcomes)

let qualities t select = List.filter_map select t.outcomes

(* Benchmark harness: regenerates every table and figure of the
   reconstructed evaluation (see EXPERIMENTS.md) and runs Bechamel
   micro-benchmarks of the diagnosis kernels.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table3 fig2  # a subset
     dune exec bench/main.exe -- --trials 30 table4
     dune exec bench/main.exe -- micro        # Bechamel kernels only
     dune exec bench/main.exe -- parallel     # domain scaling, writes
                                              # BENCH_parallel.json
     dune exec bench/main.exe -- volume       # volume-service throughput
                                              # at 1/2/4 workers, writes
                                              # BENCH_volume.json
     dune exec bench/main.exe -- cover        # greedy vs exact minimum
                                              # cover per circuit, writes
                                              # BENCH_cover.json
     dune exec bench/main.exe -- store        # cold vs prewarm vs
                                              # snapshot-load first
                                              # diagnose (MDD_BENCH_TIER=
                                              # large adds rnd50k), writes
                                              # BENCH_store.json *)

let trials = ref 10
let seed = ref 2024
let csv_dir = ref None

(* --- Bechamel micro-benchmarks ------------------------------------- *)

(* A prepared diagnosis problem: circuit, test set, good words and a
   3-defect datalog, so each kernel is timed in isolation. *)
type prepared = {
  p_name : string;
  net : Netlist.t;
  pats : Pattern.t;
  block : Pattern.block;
  good : Logic_sim.net_values;
  dlog : Datalog.t;
  site : Netlist.net;
}

let prepare name =
  let net =
    match Generators.find_suite name with
    | Some n -> n
    | None -> failwith ("unknown circuit " ^ name)
  in
  let pats = Campaign.test_set net in
  let block = List.hd (Pattern.blocks pats) in
  let good = Logic_sim.simulate_block net block in
  let rng = Rng.create 99 in
  let expected = Logic_sim.responses net pats in
  let rec make_dlog attempts =
    if attempts = 0 then failwith "no failing combination found"
    else
      let defects = Injection.random_defects rng net Injection.default_mix 3 in
      let observed = Injection.observed_responses net pats defects in
      let dlog = Datalog.of_responses ~expected ~observed in
      if Datalog.num_failing dlog = 0 then make_dlog (attempts - 1) else dlog
  in
  let dlog = make_dlog 50 in
  let site = (Netlist.pos net).(0) in
  { p_name = name; net; pats; block; good; dlog; site }

let micro_tests () =
  let open Bechamel in
  let circuits = List.map prepare [ "c17"; "add8"; "alu8"; "rnd1k" ] in
  let kernel ~name fn =
    List.map
      (fun p -> Test.make ~name:(Printf.sprintf "%s/%s" name p.p_name) (Staged.stage (fn p)))
      circuits
  in
  let good_sim =
    kernel ~name:"good-sim-block" (fun p () -> Logic_sim.simulate_block p.net p.block)
  in
  let fault_sims =
    List.map
      (fun p ->
        let sim = Fault_sim.create p.net in
        Test.make
          ~name:(Printf.sprintf "fault-sim/%s" p.p_name)
          (Staged.stage (fun () ->
               Fault_sim.po_diffs sim ~good:p.good ~width:p.block.Pattern.width
                 ~site:p.site ~stuck:true)))
      circuits
  in
  let diagnose =
    kernel ~name:"diagnose" (fun p ->
        let session = Session.create p.net p.pats in
        fun () -> Noassume.diagnose_session session p.dlog)
  in
  Test.make_grouped ~name:"mdd" (good_sim @ fault_sims @ diagnose)

let run_micro () =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] (micro_tests ()) in
  let ols =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let table =
    Table.create ~title:"Bechamel micro-benchmarks (monotonic clock)"
      [ ("kernel", Table.Left); ("ns/run", Table.Right); ("r2", Table.Right) ]
  in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) ols [] in
  List.iter
    (fun (name, est) ->
      let ns =
        match Analyze.OLS.estimates est with Some (e :: _) -> e | Some [] | None -> nan
      in
      let r2 = match Analyze.OLS.r_square est with Some r -> r | None -> nan in
      Table.add_row table [ name; Printf.sprintf "%.0f" ns; Printf.sprintf "%.3f" r2 ])
    (List.sort compare rows);
  Table.print table

(* --- Parallel scaling ---------------------------------------------- *)

(* Median wall-clock of the cold explain build and diagnose on the rnd1k suite
   circuit at 1/2/4/8 domains; the JSON gives later PRs a trajectory to
   beat.  Medians are per-kernel so a later sequential regression is
   visible even when the speedup column still looks right. *)
let run_parallel () =
  let report = Parbench.run ~circuit:"rnd1k" ~domain_counts:[ 1; 2; 4; 8 ] ~repeats:5 () in
  Table.print (Parbench.to_table report);
  let path = "BENCH_parallel.json" in
  Parbench.write_json ~path report;
  Printf.printf "(wrote %s)\n%!" path;
  (* The instrumented counters of the full diagnose run at 1 domain,
     standalone: the deterministic run report CI uploads next to the
     scaling numbers (the same data is embedded per sample above). *)
  (match
     List.find_opt
       (fun s -> s.Parbench.kernel = "diagnose" && s.Parbench.domains = 1)
       report.Parbench.samples
   with
  | Some { Parbench.stats = Some stats; _ } ->
    let stats_path = "BENCH_stats.json" in
    Run_report.write ~timings:false ~path:stats_path stats;
    Printf.printf "(wrote %s)\n%!" stats_path
  | Some { Parbench.stats = None; _ } | None -> ());
  print_newline ()

(* --- Volume-service throughput -------------------------------------- *)

(* Diagnoses/sec of one warm rnd2k session drained at 1/2/4 worker
   domains, lazy-warm vs prewarm+frozen arms — request-level
   parallelism, the scaling axis volume diagnosis actually ships.  On a
   single-CPU host expect parity across worker counts; the JSON records
   the curve either way.  MDD_BENCH_TIER=large (the weekly CI job) adds
   an rnd50k point with a small die queue, tracking the cold-start
   amortisation ([prewarm_ms] against the per-die drain) at the scale
   where it matters. *)
let run_volume () =
  let points =
    (* (circuit, dies, repeats, output path) *)
    let default = [ ("rnd2k", 8, 3, "BENCH_volume.json") ] in
    match Sys.getenv_opt "MDD_BENCH_TIER" with
    | Some "large" -> default @ [ ("rnd50k", 3, 2, "BENCH_volume_rnd50k.json") ]
    | None | Some _ -> default
  in
  List.iter
    (fun (circuit, dies, repeats, path) ->
      let report = Volumebench.run ~circuit ~worker_counts:[ 1; 2; 4 ] ~dies ~repeats () in
      Table.print (Volumebench.to_table report);
      Volumebench.write_json ~path report;
      Printf.printf "(wrote %s)\n\n%!" path)
    points

(* --- Persistent signature store ------------------------------------- *)

(* Time-to-first-report of a fresh process: cold candidate simulation
   vs the live prewarm sweep vs adopting a saved snapshot
   (EXPERIMENTS Fig 1c, regression gate 7).  MDD_BENCH_TIER=large adds
   the rnd50k point — the circuit whose full-pool arena must sit inside
   the default 64 MB budget. *)
let run_store () =
  let circuits =
    match Sys.getenv_opt "MDD_BENCH_TIER" with
    | Some "large" -> [ "rnd2k"; "rnd50k" ]
    | None | Some _ -> [ "rnd2k" ]
  in
  let report = Storebench.run ~circuits () in
  Table.print (Storebench.to_table report);
  let path = "BENCH_store.json" in
  Storebench.write_json ~path report;
  Printf.printf "(wrote %s)\n\n%!" path;
  (* Hard acceptance, not a soft report: every circuit's full-pool
     packed arena must sit inside the default cache budget. *)
  List.iter
    (fun (s : Storebench.sample) ->
      if not s.Storebench.fits_budget then begin
        Printf.eprintf "store bench: %s arena (%d bytes) exceeds the %d-byte budget\n"
          s.Storebench.circuit s.Storebench.arena_bytes s.Storebench.budget_bytes;
        exit 1
      end)
    report.Storebench.samples

(* --- Greedy-vs-exact covering differential -------------------------- *)

(* Cover-size resolution of the exact (implicit hitting-set) backend
   against the greedy default, on the same seeded trial stream per
   circuit — the numbers EXPERIMENTS.md's resolution table quotes and
   the data behind the min_exact_agreement regression gate.  The
   default circuit list adds the vendored .bench circuits to the two
   random-logic tiers; MDD_BENCH_TIER=large adds rnd10k, and any other
   value is a comma-separated explicit list of suite or tier names. *)
let run_cover () =
  let vendored =
    List.filter
      (fun (name, _) -> name <> "rnd10k" && name <> "rnd50k")
      (Generators.tiers ())
    |> List.map fst
  in
  let circuits =
    let default = [ "rnd1k"; "rnd2k" ] @ vendored in
    match Sys.getenv_opt "MDD_BENCH_TIER" with
    | None | Some "" | Some "default" -> default
    | Some "large" -> default @ [ "rnd10k" ]
    | Some names -> String.split_on_char ',' names |> List.map String.trim
  in
  let report = Coverbench.run ~circuits ~trials:(max 6 !trials) () in
  Table.print (Coverbench.to_table report);
  let path = "BENCH_cover.json" in
  Coverbench.write_json ~path report;
  Printf.printf "(wrote %s)\n\n%!" path

(* --- Table/figure drivers ------------------------------------------ *)

let experiments : (string * (unit -> Table.t)) list =
  [
    ("table1", fun () -> Tables.table1 ());
    ("table2", fun () -> Tables.table2 ~trials:!trials ~seed:!seed);
    ("table3", fun () -> Tables.table3 ~trials:!trials ~seed:!seed);
    ("table4", fun () -> Tables.table4 ~trials:!trials ~seed:!seed);
    ("table5", fun () -> Tables.table5 ~trials:!trials ~seed:!seed);
    ("table6", fun () -> Tables.table6 ~trials:(max 3 (!trials / 2)) ~seed:!seed);
    ("table7", fun () -> Tables.table7 ~trials:!trials ~seed:!seed);
    ("table8", fun () -> Tables.table8 ~trials:!trials ~seed:!seed);
    ("table9", fun () -> Tables.table9 ~trials:(2 * !trials) ~seed:!seed);
    ("table10", fun () -> Tables.table10 ~trials:!trials ~seed:!seed);
    ("table11", fun () -> Tables.table11 ~trials:!trials ~seed:!seed);
    ("fig1", fun () -> Tables.fig1 ~trials:(max 3 (!trials / 2)));
    ("fig2", fun () -> Tables.fig2 ~trials:!trials ~seed:!seed);
    ("fig3", fun () -> Tables.fig3 ~trials:!trials ~seed:!seed);
    ("fig4", fun () -> Tables.fig4 ~trials:(max 3 (!trials / 2)) ~seed:!seed);
    ("fig5", fun () -> Tables.fig5 ~trials:!trials ~seed:!seed);
    ("fig6", fun () -> Tables.fig6 ~trials:(max 3 (!trials / 2)) ~seed:!seed);
    ("ablation-exact", fun () -> Tables.ablation_exact ~trials:(max 3 (!trials / 2)) ~seed:!seed);
    ("ablation-layout", fun () -> Tables.ablation_layout ~trials:!trials ~seed:!seed);
    ("ablation-validate", fun () -> Tables.ablation_validate ~trials:!trials ~seed:!seed);
    ("ablation-tiebreak", fun () -> Tables.ablation_tiebreak ~trials:!trials ~seed:!seed);
    ( "ablation-perpattern",
      fun () -> Tables.ablation_perpattern ~trials:!trials ~seed:!seed );
  ]

let run_experiment name =
  match List.assoc_opt name experiments with
  | Some f ->
    let t0 = Sys.time () in
    let table = f () in
    Table.print table;
    (match !csv_dir with
    | Some dir ->
      let path = Filename.concat dir (name ^ ".csv") in
      let oc = open_out path in
      output_string oc (Table.to_csv table);
      close_out oc
    | None -> ());
    Printf.printf "(%s generated in %.1fs)\n\n%!" name (Sys.time () -. t0)
  | None -> (
    match name with
    | "micro" -> run_micro ()
    | "parallel" -> run_parallel ()
    | "volume" -> run_volume ()
    | "cover" -> run_cover ()
    | "store" -> run_store ()
    | _ ->
      prerr_endline ("unknown experiment: " ^ name);
      exit 2)

let () =
  let selected = ref [] in
  let spec =
    [
      ("--trials", Arg.Set_int trials, "trials per campaign cell (default 10)");
      ("--seed", Arg.Set_int seed, "campaign seed (default 2024)");
      ("--quick", Arg.Unit (fun () -> trials := 3), " 3 trials per cell");
      ( "--csv",
        Arg.String (fun dir -> csv_dir := Some dir),
        "also write each table as <dir>/<experiment>.csv" );
    ]
  in
  Arg.parse spec (fun name -> selected := name :: !selected) "bench/main.exe [experiments]";
  let to_run =
    match List.rev !selected with
    | [] ->
      List.map fst experiments @ [ "micro"; "parallel"; "volume"; "cover"; "store" ]
    | l -> l
  in
  List.iter run_experiment to_run

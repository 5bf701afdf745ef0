(* Benchmark harness: regenerates every table and figure of the
   reconstructed evaluation (see EXPERIMENTS.md) and runs Bechamel
   micro-benchmarks of the diagnosis kernels.  End-to-end timing lives
   in benchmark/ (see benchmark/README.md).

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table3 fig2  # a subset
     dune exec bench/main.exe -- --trials 30 table4
     dune exec bench/main.exe -- micro        # Bechamel kernels only *)

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
  good : Fault_sim.good;
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
  let good = Fault_sim.good net [| block |] in
  let rng = Rng.create 99 in
  let expected = Logic_sim.responses net pats in
  let dlog =
    match fst (Campaign.failing_die rng net pats ~expected ~multiplicity:3) with
    | Some (_, dlog) -> dlog
    | None -> failwith "no failing combination found"
  in
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
        (* One stuck-at fault through the batch kernel, on a simulator
           over the one block; publishing drops the per-batch count
           each call records. *)
        let sim = Fault_sim.create p.net p.good in
        let fault _ = (p.site, true) in
        let sink _ _ _ _ = () in
        Test.make
          ~name:(Printf.sprintf "fault-sim/%s" p.p_name)
          (Staged.stage (fun () ->
               Fault_sim.simulate_batch sim ~n:1 ~fault sink;
               Fault_sim.publish_stats sim)))
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
  print_endline (Table.render table)

(* --- Table/figure drivers ------------------------------------------ *)

let experiments : (string * (unit -> Table.t)) list =
  [
    ("table1", fun () -> Tables.table1 ());
    ("table2", fun () -> Tables.table2 ~trials:!trials ~seed:!seed);
    ("table3", fun () -> Tables.table3 ~trials:!trials ~seed:!seed);
    ("table4", fun () -> Tables.table4 ~trials:!trials ~seed:!seed);
    ("table5", fun () -> Tables.table5 ~trials:!trials ~seed:!seed);
    ("table6", fun () -> Tables.table6 ~trials:(max 3 (!trials / 2)) ~seed:!seed);
    ("fig1", fun () -> Tables.fig1 ~trials:(max 3 (!trials / 2)));
    ("fig2", fun () -> Tables.fig2 ~trials:!trials ~seed:!seed);
    ("fig3", fun () -> Tables.fig3 ~trials:!trials ~seed:!seed);
    ("fig4", fun () -> Tables.fig4 ~trials:(max 3 (!trials / 2)) ~seed:!seed);
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
    print_endline (Table.render table);
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
    | [] -> List.map fst experiments @ [ "micro" ]
    | l -> l
  in
  List.iter run_experiment to_run

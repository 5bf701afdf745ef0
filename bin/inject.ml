(* Defect injection tool: draw random defects, simulate the faulty
   machine over a test set and emit the tester datalog (plus the ground
   truth, for later scoring).

     dune exec bin/inject.exe -- --circuit alu8 -k 3 --mix mixed --seed 7 \
       --datalog out.datalog *)

open Cmdliner

let multiplicity_arg =
  let doc = "Number of simultaneous defects to inject." in
  Arg.(value & opt int 2 & info [ "k"; "multiplicity" ] ~docv:"N" ~doc)

let mix_arg =
  let doc = "Defect mix: stuck, bridge, open, intermittent or mixed." in
  Arg.(value & opt string "mixed" & info [ "mix" ] ~docv:"MIX" ~doc)

let datalog_arg =
  let doc = "Write the datalog to $(docv) (default: stdout)." in
  Arg.(value & opt (some string) None & info [ "datalog" ] ~docv:"FILE" ~doc)

let run bench suite patterns_file seed multiplicity mix_name datalog_out =
  let net =
    Cli_common.or_die (Result.bind (Cli_common.circuit bench suite) Design.load_circuit)
  in
  let mix =
    match Injection.mix_of_string mix_name with
    | Some m -> m
    | None -> Cli_common.or_die (Error ("unknown mix " ^ mix_name))
  in
  let pats = Cli_common.or_die (Design.load_patterns net patterns_file) in
  let expected = Logic_sim.responses net pats in
  let defects, dlog =
    match
      fst (Campaign.failing_die ~mix (Rng.create seed) net pats ~expected ~multiplicity)
    with
    | Some die -> die
    | None -> Cli_common.or_die (Error "injected defects never failed the test")
  in
  Format.eprintf "# ground truth:@.";
  List.iter (fun d -> Format.eprintf "#   %s@." (Defect.describe net d)) defects;
  Format.eprintf "# %d failing patterns out of %d@." (Datalog.num_failing dlog)
    (Pattern.count pats);
  let text = Datalog.to_text dlog in
  match datalog_out with
  | Some path ->
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Format.eprintf "# wrote %s@." path
  | None -> print_string text

let cmd =
  let doc = "inject random defects and emit the tester datalog" in
  Cmd.v
    (Cmd.info "inject" ~doc)
    Term.(
      const run $ Cli_common.bench_arg $ Cli_common.suite_arg $ Cli_common.patterns_arg
      $ Cli_common.seed_arg $ multiplicity_arg $ mix_arg $ datalog_arg)

let () = exit (Cmd.eval cmd)

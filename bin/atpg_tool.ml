(* ATPG flow tool: generate a stuck-at test set for a circuit and report
   coverage.

     dune exec bin/atpg_tool.exe -- --circuit add8 -o patterns.txt *)

open Cmdliner

let output_arg =
  let doc = "Write the generated patterns to $(docv)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let compact_arg =
  let doc = "Run reverse-order static compaction on the generated set." in
  Arg.(value & flag & info [ "compact" ] ~doc)

let backtrack_arg =
  let doc = "PODEM backtrack limit." in
  Arg.(value & opt int 512 & info [ "backtrack-limit" ] ~docv:"N" ~doc)

let run bench suite seed compact output backtrack_limit =
  let net =
    Cli_common.or_die (Result.bind (Cli_common.circuit bench suite) Design.load_circuit)
  in
  Format.printf "circuit: %a@." Netlist.pp_stats net;
  let report = Tpg.generate ~seed ~backtrack_limit net in
  Format.printf "collapsed faults: %d@." report.Tpg.total_faults;
  Format.printf "detected: %d, untestable: %d, aborted: %d@." report.Tpg.detected
    report.Tpg.untestable report.Tpg.aborted;
  Format.printf "coverage: %.2f%%@." (100.0 *. report.Tpg.coverage);
  let pats =
    if compact then begin
      let c = Tpg.compact net report.Tpg.patterns in
      Format.printf "patterns: %d (compacted from %d)@." (Pattern.count c)
        (Pattern.count report.Tpg.patterns);
      c
    end
    else begin
      Format.printf "patterns: %d@." (Pattern.count report.Tpg.patterns);
      report.Tpg.patterns
    end
  in
  match output with
  | Some path ->
    let oc = open_out path in
    output_string oc (Pattern.to_text pats);
    close_out oc;
    Format.printf "wrote %s@." path
  | None -> ()

let cmd =
  let doc = "generate a stuck-at test set (random + PODEM top-off)" in
  Cmd.v
    (Cmd.info "atpg_tool" ~doc)
    Term.(
      const run $ Cli_common.bench_arg $ Cli_common.suite_arg $ Cli_common.seed_arg
      $ compact_arg $ output_arg $ backtrack_arg)

let () = exit (Cmd.eval cmd)

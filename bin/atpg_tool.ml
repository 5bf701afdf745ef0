(* ATPG flow tool: generate a circuit's stuck-at test set and report
   coverage.  The set is the campaign flow's ([Campaign.test_report]),
   the one every tool generates when given no pattern file.

     dune exec bin/atpg_tool.exe -- --circuit add8 -o patterns.txt *)

open Cmdliner

let output_arg =
  let doc = "Write the generated patterns to $(docv)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let compact_arg =
  let doc = "Run reverse-order static compaction on the generated set." in
  Arg.(value & flag & info [ "compact" ] ~doc)

let run bench suite compact output =
  let net =
    Cli_common.or_die (Result.bind (Cli_common.circuit bench suite) Design.load_circuit)
  in
  Format.printf "circuit: %a@." Netlist.pp_stats net;
  let report = Campaign.test_report net in
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
      const run $ Cli_common.bench_arg $ Cli_common.suite_arg $ compact_arg $ output_arg)

let () = exit (Cmd.eval cmd)

(* Good-machine simulation tool: apply patterns to a circuit and print
   the primary-output responses.

     dune exec bin/simulate.exe -- --circuit c17 --random 8 --seed 3
     dune exec bin/simulate.exe -- --bench my.bench --patterns pats.txt *)

open Cmdliner

let random_arg =
  let doc = "Apply $(docv) random patterns instead of the ATPG set." in
  Arg.(value & opt (some int) None & info [ "random" ] ~docv:"N" ~doc)

let exhaustive_arg =
  let doc = "Apply all input combinations (circuits with up to 20 inputs)." in
  Arg.(value & flag & info [ "exhaustive" ] ~doc)

let run bench suite patterns_file random exhaustive seed =
  let net =
    Cli_common.or_die (Result.bind (Cli_common.circuit bench suite) Design.load_circuit)
  in
  let pats =
    if exhaustive then Pattern.exhaustive ~npis:(Netlist.num_pis net)
    else
      match random with
      | Some n -> Pattern.random (Rng.create seed) ~npis:(Netlist.num_pis net) ~count:n
      | None -> Cli_common.or_die (Design.load_patterns net patterns_file)
  in
  Format.printf "# %a@." Netlist.pp_stats net;
  Format.printf "# inputs: %s@."
    (String.concat " " (Array.to_list (Array.map (Netlist.name net) (Netlist.pis net))));
  Format.printf "# outputs: %s@."
    (String.concat " " (Array.to_list (Array.map (Netlist.name net) (Netlist.pos net))));
  let responses = Logic_sim.responses net pats in
  for p = 0 to Pattern.count pats - 1 do
    let out =
      String.init (Netlist.num_pos net) (fun oi ->
          if Bitvec.get responses.(oi) p then '1' else '0')
    in
    Format.printf "%s -> %s@." (Pattern.to_string pats p) out
  done

let cmd =
  let doc = "simulate a gate-level circuit" in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      const run $ Cli_common.bench_arg $ Cli_common.suite_arg $ Cli_common.patterns_arg
      $ random_arg $ exhaustive_arg $ Cli_common.seed_arg)

let () = exit (Cmd.eval cmd)

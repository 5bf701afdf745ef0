(* Diagnosis tool: read a circuit, its test set and tester datalogs, and
   run a diagnosis engine.

   Single-shot (one die):
     dune exec bin/diagnose.exe -- --circuit alu8 --datalog fail.datalog
     dune exec bin/diagnose.exe -- --circuit alu8 --datalog fail.datalog \
       --method slat

   Volume (one warm session, many dies):
     dune exec bin/diagnose.exe -- --circuit rnd1k --batch-dir dies/ \
       --workers 4 --out reports/
     ls dies/*.datalog | dune exec bin/diagnose.exe -- --circuit rnd1k --serve *)

open Cmdliner

let datalog_arg =
  let doc =
    "Tester datalog file (lines: `fail <pattern> : <po> <po> ...'). Required \
     unless $(b,--batch-dir) or $(b,--serve) is given."
  in
  Arg.(value & opt (some file) None & info [ "datalog" ] ~docv:"FILE" ~doc)

let batch_dir_arg =
  let doc =
    "Volume mode: diagnose every *.datalog file in $(docv) against one warm \
     session, one diagnosis per worker domain, and write per-die JSON reports \
     plus an aggregate rollup (see --out)."
  in
  Arg.(value & opt (some dir) None & info [ "batch-dir" ] ~docv:"DIR" ~doc)

let serve_arg =
  let doc =
    "Service mode: load the session once, then read datalog file paths from \
     stdin (one per line) and emit one JSON report line per die on stdout \
     (or into --out DIR when given) until EOF.  A path that cannot be read, \
     an empty file or a malformed datalog yields a {\"name\", \"error\"} \
     record instead and the service carries on; the exit status is then 1."
  in
  Arg.(value & flag & info [ "serve" ] ~doc)

let workers_arg =
  let doc =
    "Volume mode: worker domains draining the die queue, one whole diagnosis \
     per domain (default: the runtime's recommended count).  Reports are \
     identical for every value."
  in
  Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc)

let out_arg =
  let doc =
    "Directory for per-die JSON reports (created if missing).  Default: \
     `volume_reports' under --batch-dir mode; stdout under --serve."
  in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)

let method_arg =
  let doc =
    "Diagnosis engine for single-shot runs: noassume (the paper's method), \
     slat or single.  Volume and serve modes always run noassume."
  in
  Arg.(
    value
    & opt (enum [ ("noassume", `Noassume); ("slat", `Slat); ("single", `Single) ]) `Noassume
    & info [ "m"; "method" ] ~docv:"METHOD" ~doc)

let no_validate_arg =
  let doc = "Disable multiplet validation/refinement (ablation)." in
  Arg.(value & flag & info [ "no-validate" ] ~doc)

let run bench suite patterns_file datalog_file batch_dir serve workers out method_
    no_validate cover store_dir domains stats =
  Cli_common.apply_domains domains;
  (* One diagnosis configuration, shared by every mode. *)
  let config = { Noassume.default_config with cover; validate = not no_validate } in
  let store_dir = Cli_common.store_dir store_dir in
  (* Each layer of a run is a phase of the run report: pattern.parse,
     netlist.load (store.load, or netlist.build), tpg when the ATPG set
     is generated, session.create, prewarm before the first of many
     dies, datalog.parse, the engine's own phases and report.render. *)
  Cli_common.with_stats stats @@ fun () ->
  let session =
    Cli_common.or_die
      (Result.bind (Cli_common.circuit bench suite) (fun circuit ->
           Design.session ?store_dir circuit ~patterns:patterns_file))
  in
  let net = Session.netlist session in
  let circuit =
    match (suite, bench) with Some s, _ -> s | None, Some b -> b | None, None -> ""
  in
  let failed = ref 0 in
  (* A bad die costs one error record, never the batch or the service. *)
  let report_failure (f : Volume.failure) =
    incr failed;
    prerr_endline ("error: " ^ f.Volume.error)
  in
  let mode_meta =
    match (batch_dir, serve) with
    | Some dir, _ ->
      (* --- Volume mode: drain a directory of datalogs. ------------- *)
      let loaded = Obs.phase "datalog.parse" (fun () -> Volume.load_dir session dir) in
      if loaded = [] then Cli_common.or_die (Error ("no *.datalog files in " ^ dir));
      let dies = List.filter_map Result.to_option loaded in
      let bad = List.filter_map (function Error f -> Some f | Ok _ -> None) loaded in
      List.iter report_failure bad;
      Format.printf "circuit: %a@." Netlist.pp_stats net;
      Format.printf "volume: %d dies from %s@." (List.length loaded) dir;
      let results = Volume.run ~config ?workers session dies in
      let out = Option.value out ~default:"volume_reports" in
      let ru = Volume.write_results ~dir:out ~failed:bad session results in
      Format.printf "wrote %d per-die reports + %d error records + rollup.json to %s@."
        (List.length results) !failed out;
      let top = List.filteri (fun i _ -> i < 10) ru.Volume.nets in
      List.iter
        (fun n ->
          Format.printf "  %-24s implicated on %d/%d dies (%d observations)@."
            n.Volume.net n.Volume.dies_implicated ru.Volume.diagnosed n.Volume.explained_obs)
        top;
      [
        ("mode", "volume");
        ("dies", string_of_int (List.length results));
        ("failed", string_of_int !failed);
        ( "workers",
          string_of_int
            (match workers with Some w -> w | None -> Parallel.default_domains ()) );
      ]
    | None, true ->
      (* --- Serve mode: datalog paths on stdin, reports out. -------- *)
      let n = ref 0 in
      let emit name status json =
        (match out with
        | Some dir ->
          if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
          let oc = open_out (Filename.concat dir (name ^ ".json")) in
          output_string oc json;
          close_out oc;
          Printf.printf "%s: %s\n%!" name status
        | None -> print_string json);
        flush stdout
      in
      (* Many dies share one arena: it is filled in one sweep before
         the first, as [Volume.run] fills it, so no die simulates a
         signature.  A no-op on an image's arena. *)
      ignore (Session.prewarm session : int);
      (try
         while true do
           let path = String.trim (input_line stdin) in
           if path <> "" then
             match Obs.phase "datalog.parse" (fun () -> Volume.load_die session path) with
             | Error f ->
               report_failure f;
               emit f.Volume.name "error" (Volume.error_json f)
             | Ok d ->
               let r = Volume.diagnose_die ~config session d in
               incr n;
               emit d.Volume.name "done"
                 (Obs.phase "report.render" (fun () -> Volume.die_json r))
         done
       with End_of_file -> ());
      [ ("mode", "serve"); ("dies", string_of_int !n); ("failed", string_of_int !failed) ]
    | None, false ->
      (* --- Single-shot mode. --------------------------------------- *)
      let datalog_file =
        match datalog_file with
        | Some f -> f
        | None ->
          Cli_common.or_die
            (Error "a datalog is required: --datalog FILE (or --batch-dir/--serve)")
      in
      let dlog =
        match
          Obs.phase "datalog.parse" (fun () -> Volume.load_die session datalog_file)
        with
        | Ok d -> d.Volume.dlog
        | Error f -> Cli_common.or_die (Error f.Volume.error)
      in
      Format.printf "circuit: %a@." Netlist.pp_stats net;
      Format.printf "datalog: %d failing patterns over %d outputs@."
        (Datalog.num_failing dlog) (Netlist.num_pos net);
      let render text = Obs.phase "report.render" (fun () -> print_string (text ())) in
      let cover_meta =
        match method_ with
        | `Noassume ->
          let r = Noassume.diagnose_session ~config session dlog in
          render (fun () -> Report.render net r);
          (* Surfaced so an exact-cover run can be checked for faithful
             budget reporting from the stats file alone (the CI stress
             step greps for cover_complete). *)
          ("cover_complete", string_of_bool r.Noassume.cover_complete)
          ::
          (match r.Noassume.cover_minimum with
          | Some k -> [ ("cover_minimum", string_of_int k) ]
          | None -> [])
        | `Slat ->
          let m = Explain.build_session session dlog in
          let r = Slat_diag.diagnose m in
          render (fun () -> Report.render_slat net r);
          []
        | `Single ->
          let r = Single_diag.diagnose_session session dlog in
          render (fun () -> Report.render_single net r);
          []
      in
      let method_name =
        match method_ with
        | `Noassume -> "noassume"
        | `Slat -> "slat"
        | `Single -> "single"
      in
      [ ("mode", "single"); ("method", method_name) ] @ cover_meta
  in
  ( [ ("tool", "diagnose"); ("circuit", circuit) ]
    @ mode_meta
    @ Cli_common.config_meta config ~store_dir,
    if !failed > 0 then 1 else 0 )

let cmd =
  let doc = "locate multiple defects from tester datalogs" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Implements the DAC 2008 method: per-failing-output candidate \
         analysis, greedy covering, and multiplet validation by \
         simultaneous multiple-fault simulation — no assumption that \
         failing patterns are SLAT or that a single defect is present.";
      `P
        "With --batch-dir or --serve the tool runs as a volume-diagnosis \
         service: the engine context (good-machine words, reachability \
         screen, signature cache) is built once and every die reuses it, \
         one whole diagnosis per worker domain.";
    ]
  in
  Cmd.v
    (Cmd.info "diagnose" ~doc ~man)
    Term.(
      const run $ Cli_common.bench_arg $ Cli_common.suite_arg $ Cli_common.patterns_arg
      $ datalog_arg $ batch_dir_arg $ serve_arg $ workers_arg $ out_arg $ method_arg
      $ no_validate_arg $ Cli_common.cover
      $ Cli_common.store_dir_arg $ Cli_common.domains_arg $ Cli_common.stats_arg)

let () = exit (Cmd.eval' cmd)

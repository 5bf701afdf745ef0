(* The CLI workloads: one fresh [diagnose.exe] process per die, one
   client, so a die's latency is everything an analyst waits for —
   process start, circuit, test set, session and store load, datalog
   parse, engine, render.

   The tool is configured through the environment (MDD_PREWARM,
   MDD_SIG_STORE, MDD_STATS), never through flags, so the command line
   keeps working if a later change makes a switch the default. *)

open Workload

(* One timed process; [span] is its [cli.die] span when traced, else -1. *)
type proc = { i : int; code : int; wall : float; rss : float; span : int }

let run w o ~diagnose =
  let file fmt = Printf.ksprintf (Filename.concat o.work) fmt in
  let net, netlist_ns = Spans.run "netlist.load" (fun _ -> Dies.circuit w.circuit) in
  let pattern_args =
    match w.patterns with
    | None -> []
    | Some _ ->
      write_file (file "patterns.txt") (random_patterns_text w net);
      [ "--patterns"; file "patterns.txt" ]
  in
  let base_args = [ "--circuit"; w.circuit ] @ pattern_args in
  (* Set-up: a process that builds the session and primes an empty
     store, then serves no die. *)
  let store s = file "store-%d" s in
  let setup_s =
    Array.init (setups w o) (fun s ->
        let code, wall, _ =
          spawn
            ~env:[ "MDD_PREWARM=1"; "MDD_SIG_STORE=" ^ store s ]
            ~out:(file "prime-%d.out" s) diagnose (base_args @ [ "--serve" ])
        in
        if code <> 0 then failwith (Printf.sprintf "store priming exited %d" code);
        wall)
  in
  let store = store (setups w o - 1) in
  (* Without a pattern file the runner needs the CLI's ATPG test set
     too.  Timed here, just before the timed processes and not beside
     the set-up process (two ATPG runs on a 2-core host slow each other
     by ~45%), it is the layer every CLI process pays first. *)
  let pats, tpg_ns =
    match w.patterns with
    | None -> Spans.run "tpg.generate" (fun _ -> Campaign.test_set net)
    | Some _ -> (Pattern.of_text (read_file (file "patterns.txt")), 0.)
  in
  let pats_text = Pattern.to_text pats in
  let dies = Dies.make net pats (Rng.create o.seed) (pool_size w o) in
  Array.iter (fun d -> write_file (file "die-%04d.datalog" d.Dies.idx) d.Dies.text) dies;
  let env = [ "MDD_PREWARM=1"; "MDD_SIG_STORE=" ^ store ] in
  (* Timed loop: the next die starts while the run's seconds last. *)
  let t0 = now_s () in
  let rec loop i acc =
    if i < Array.length dies && now_s () -. t0 < o.seconds then begin
      let args = base_args @ [ "--datalog"; file "die-%04d.datalog" i ] in
      let out = file "die-%04d.out" i in
      let is_traced = o.trace && traced i in
      let env =
        if is_traced then env @ [ "MDD_STATS=" ^ file "stats-%04d.json" i ] else env
      in
      let span = ref (-1) in
      let (code, wall, rss), _ =
        if is_traced then
          Spans.run ~die:i "cli.die" (fun id ->
              span := id;
              spawn ~env ~out diagnose args)
        else (spawn ~env ~out diagnose args, 0.)
      in
      loop (i + 1) ({ i; code; wall; rss; span = !span } :: acc)
    end
    else List.rev acc
  in
  let procs = loop 0 [] in
  let n = List.length procs in
  (* Correctness: every report must end with the in-process rendering of
     the same die, diagnosed on a separate lazy session. *)
  let checked = Array.sub dies 0 n in
  let reference_session = reference_session net pats_text in
  let refs = Array.of_list (reference reference_session checked) in
  let failed = ref 0 in
  let texts =
    List.map
      (fun p ->
        let out = read_file (file "die-%04d.out" p.i) in
        if p.code <> 0 || not (String.ends_with ~suffix:refs.(p.i).Volume.text out) then
          incr failed;
        out)
      procs
  in
  (* Trace: layers the CLI has no phase for are timed by repeating the
     same call here, and attributed to the die's process span. *)
  List.iter
    (fun p ->
      if p.span >= 0 && p.code = 0 then begin
        let i = p.i in
        let attr name ns = Spans.attribute ~parent:p.span ~die:i name ns in
        attr "netlist.load" netlist_ns;
        attr "tpg.generate" tpg_ns;
        let fresh, ns =
          Spans.run ~die:i "replay.pattern.parse" (fun _ -> Pattern.of_text pats_text)
        in
        if w.patterns <> None then attr "pattern.parse" ns;
        let _, ns =
          Spans.run ~die:i "replay.session.create" (fun _ ->
              let s = Session.create net fresh in
              Option.iter
                (fun c -> ignore (Sig_cache.load_frozen ~dir:store c))
                (Session.cache s))
        in
        attr "session.create" ns;
        let _, ns =
          Spans.run ~die:i "replay.datalog.parse" (fun _ -> Dies.parse net pats dies.(i))
        in
        attr "datalog.parse" ns;
        let _, ns =
          Spans.run ~die:i "replay.report.render" (fun _ ->
              Report.render net refs.(i).Volume.result)
        in
        attr "report.render" ns;
        match Obs_json.parse_file (file "stats-%04d.json" i) with
        | Ok json -> attribute_report ~parent:p.span ~die:i json
        | Error msg -> failwith ("unreadable stats file: " ^ msg)
      end)
    procs;
  let traced, untraced = List.partition (fun p -> p.span >= 0) procs in
  let walls = Array.of_list (List.map (fun p -> p.wall) procs) in
  finish o ~reference_session ~setup_s
    ~lat_ms:(Array.map (( *. ) 1000.) walls)
    ~dies_per_s:(float_of_int n /. Array.fold_left ( +. ) 0. walls)
    ~rss_mb:(Array.of_list (List.map (fun p -> p.rss) procs))
    ~texts ~failed:!failed ~attempted:n
    ~scored:(List.combine (Array.to_list checked) (Array.to_list refs))
    ~traced:(List.map (fun p -> (p.i, p.wall)) traced)
    ~untraced:(List.map (fun p -> p.wall) untraced)

(* Shared pieces of the command-line tools: circuit loading (from a
   `.bench` file or the built-in suite) and pattern-set sourcing. *)

open Cmdliner

let unknown_circuit name =
  Printf.sprintf "unknown circuit %S (try: %s)" name
    (String.concat ", " (Generators.suite_names @ List.map fst (Generators.tiers ())))

let load_circuit bench suite =
  match (bench, suite) with
  | Some path, None -> (
    try
      if Filename.check_suffix path ".v" then Ok (Verilog_io.parse_file path)
      else Ok (Bench_io.parse_file path)
    with
    | Bench_io.Parse_error (line, msg) | Verilog_io.Parse_error (line, msg) ->
      Error (Printf.sprintf "%s:%d: %s" path line msg)
    | Sys_error msg -> Error msg)
  | None, Some name -> (
    (* Suite first, then the large benchmark tiers (rnd10k/rnd50k and
       vendored .bench circuits).  Both are lazy: a lookup builds only
       the circuit it names, and an unknown name builds none — the
       error lists names only. *)
    match Generators.find_suite name with
    | Some net -> Ok net
    | None -> (
      match Generators.find_tier name with
      | Some net -> Ok net
      | None -> Error (unknown_circuit name)))
  | Some _, Some _ -> Error "give either --bench or --circuit, not both"
  | None, None -> Error "a circuit is required: --bench FILE or --circuit NAME"

(* The [Netlist.source] of the circuit [load_circuit] would build, found
   without building it: a netlist file's content digest, or the suite
   or tier generator's key. *)
let circuit_source bench suite =
  match (bench, suite) with
  | Some path, None -> (
    match Bench_io.read_text path with
    | text ->
      Ok
        (if Filename.check_suffix path ".v" then Verilog_io.source_key text
         else Bench_io.source_key text)
    | exception Sys_error msg -> Error msg)
  | None, Some name -> (
    match Generators.source_key name with
    | Some key -> Ok key
    | None -> Error (unknown_circuit name))
  | Some _, Some _ | None, None ->
    (* Neither or both: [load_circuit]'s error, without a build. *)
    load_circuit bench suite |> Result.map Netlist.source

let bench_arg =
  let doc =
    "Read the circuit from a netlist file: ISCAS `.bench', or structural \
     Verilog when the name ends in `.v'."
  in
  Arg.(value & opt (some file) None & info [ "bench" ] ~docv:"FILE" ~doc)

let suite_arg =
  let doc = "Use a built-in benchmark circuit (see Table 1: c17, add8, alu8, ...)." in
  Arg.(value & opt (some string) None & info [ "c"; "circuit" ] ~docv:"NAME" ~doc)

let seed_arg =
  let doc = "Deterministic seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let domains_arg =
  let doc =
    "OCaml domains for the simulation kernels (default: the runtime's \
     recommended count, capped at 8; MDD_DOMAINS overrides). Results are \
     identical for every value."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

(* The CLI override wins over MDD_DOMAINS; [None] leaves the
   environment-derived default in place. *)
let apply_domains = Option.iter Parallel.set_domains

let prewarm_arg =
  let doc =
    "Before the first diagnosis, fault-simulate the whole collapsed \
     fault pool in one batched sweep into the signature arena: every \
     later signature read is an arena hit, and the cold first-die path \
     disappears.  Pays off when many datalogs share one circuit \
     ($(b,--batch-dir), $(b,--serve)); the MDD_PREWARM environment \
     variable does the same.  With $(b,--store-dir), only signatures the \
     design image lacks are swept, and the image is saved with them.  \
     Results are identical either way."
  in
  Arg.(value & flag & info [ "prewarm" ] ~doc)

let cover_arg =
  let doc =
    "Covering backend for the noassume engine: $(b,greedy) (the paper's \
     iterative cover, the default) or $(b,exact) (minimum-cardinality \
     cover via the implicit hitting-set loop, seeded with the greedy \
     result as an upper bound — never larger than greedy, and proven \
     minimum when the search completes).  The MDD_COVER environment \
     variable is the fallback."
  in
  Arg.(
    value
    & opt (some (enum [ ("greedy", Session.Greedy); ("exact", Session.Exact) ])) None
    & info [ "cover" ] ~docv:"BACKEND" ~doc)

let store_dir_arg =
  let doc =
    "Directory of the design's store: one image file per design, holding \
     the netlist, the test set and the signature arena.  The rule is one, \
     with or without $(b,--prewarm): a valid image for this circuit and \
     test set is loaded — no netlist build, no ATPG run, and no \
     simulation for the signatures it holds — and otherwise the run \
     builds what it needs and saves the image here.  $(b,--prewarm) only \
     decides whether signatures the image lacks are swept before the \
     first die (and saved with it).  An image is keyed by the circuit's \
     source (a suite name and generator version, or a netlist file's \
     content digest) and the test set (the ATPG flow's parameters, or \
     the $(b,--patterns) set's digest), and checked against a checksum \
     and its encoding version; a stale or corrupt image is rejected \
     (counter store.rejects) and rewritten.  The MDD_SIG_STORE \
     environment variable is the fallback.  Results are identical \
     either way."
  in
  Arg.(value & opt (some string) None & info [ "store-dir" ] ~docv:"DIR" ~doc)

let cover_budget_arg =
  let doc =
    "Node budget for the exact covering backend (branch-and-bound nodes \
     summed over the whole hitting-set loop; default 2000000).  On \
     exhaustion the run falls back to the greedy cover, counts \
     cover.budget_fallbacks and reports cover_complete=false.  The \
     MDD_COVER_BUDGET environment variable is the fallback."
  in
  Arg.(value & opt (some int) None & info [ "cover-budget" ] ~docv:"N" ~doc)

(* The MDD_PREWARM / MDD_COVER / MDD_COVER_BUDGET / MDD_SIG_STORE
   environment switches are resolved here, once, into a
   [Session.config] record — nothing in lib/ reads them.  The boolean
   flag only pushes away from the default: leaving it off keeps the
   environment-derived setting in place, mirroring [apply_domains]. *)
let env_off name =
  match Sys.getenv_opt name with None | Some "" -> false | Some _ -> true

(* MDD_COVER fallback: the same names the flag accepts; anything else is
   ignored. *)
let env_cover () =
  match Sys.getenv_opt "MDD_COVER" with
  | Some "greedy" -> Some Session.Greedy
  | Some "exact" -> Some Session.Exact
  | Some _ | None -> None

let env_cover_budget () =
  match Sys.getenv_opt "MDD_COVER_BUDGET" with
  | None -> None
  | Some v -> (
    match int_of_string_opt (String.trim v) with
    | Some n when n >= 1 -> Some n
    | Some _ | None -> None)

(* MDD_SIG_STORE fallback: any non-empty value is a directory path. *)
let env_store_dir () =
  match Sys.getenv_opt "MDD_SIG_STORE" with None | Some "" -> None | Some dir -> Some dir

let session_config ?(prewarm = false) ?cover ?cover_budget ?store_dir ~domains () =
  let cover =
    match cover with
    | Some c -> c
    | None -> (
      match env_cover () with Some c -> c | None -> Session.default_config.Session.cover)
  in
  let cover_budget =
    match cover_budget with
    | Some n when n >= 1 -> n
    | Some _ | None -> (
      match env_cover_budget () with
      | Some n -> n
      | None -> Session.default_cover_budget)
  in
  let store_dir = match store_dir with Some _ as d -> d | None -> env_store_dir () in
  {
    Session.domains;
    prewarm = prewarm || env_off "MDD_PREWARM";
    cover;
    cover_budget;
    store_dir;
  }

(* Resolved-configuration metadata for `--stats` reports: read back from
   the config record the run actually used, never re-derived from the
   environment. *)
let config_meta (c : Session.config) =
  [
    ( "domains",
      string_of_int
        (match c.Session.domains with
        | Some d -> d
        | None -> Parallel.default_domains ()) );
    ("prewarm", if c.Session.prewarm then "on" else "off");
    ("cover", match c.Session.cover with Session.Greedy -> "greedy" | Session.Exact -> "exact");
    ("store_dir", match c.Session.store_dir with Some d -> d | None -> "off");
  ]

(* Pattern source: an explicit file, or the in-repo ATPG flow. *)
let patterns_arg =
  let doc = "Read test patterns from a file (one 0/1 line per pattern)." in
  Arg.(value & opt (some file) None & info [ "patterns" ] ~docv:"FILE" ~doc)

let check_width path net pats =
  if Pattern.npis pats <> Netlist.num_pis net then
    Error
      (Printf.sprintf "%s: pattern width %d does not match circuit PI count %d" path
         (Pattern.npis pats) (Netlist.num_pis net))
  else Ok pats

let load_patterns net patterns_file =
  match patterns_file with
  | Some path ->
    Result.bind
      (Obs.phase "pattern.parse" (fun () -> Pattern.read_file path))
      (check_width path net)
  | None -> Ok (Campaign.test_set net)

(* The netlist and test set a diagnosis runs on, and, with a store
   directory, the design image they came from ([None] when there was no
   valid one; [Session.create ~image] takes it from here, so the file is
   read once).  The image is looked up by what the run names — the
   circuit's source and the test set's origin — before anything is
   built: a hit decodes the netlist (and the ATPG set) from the image,
   a miss builds the netlist under [netlist.build] and generates the
   set under [tpg]. *)
let load_design ?store_dir bench suite patterns_file =
  let ( let* ) = Result.bind in
  let* given =
    match patterns_file with
    | Some path ->
      Result.map Option.some
        (Obs.phase "pattern.parse" (fun () -> Pattern.read_file path))
    | None -> Ok None
  in
  let lookup dir source =
    Obs.phase "store.load" (fun () ->
        let origin =
          match given with Some p -> Pattern.origin p | None -> Campaign.atpg_origin
        in
        Store_file.load ~path:(Store_file.path ~dir ~source)
          ~key:(Store_file.key_of ~source ~origin) (fun image ->
            let net = Store_file.decode_netlist ~source image in
            let stored =
              match given with
              | Some _ -> None
              | None ->
                Some (Store_file.decode_tests ~origin ~npis:(Netlist.num_pis net) image)
            in
            (net, stored, image)))
  in
  let* net, stored, image =
    Obs.phase "netlist.load" (fun () ->
        let* found =
          match store_dir with
          | None -> Ok None
          | Some dir -> Result.map (lookup dir) (circuit_source bench suite)
        in
        match found with
        | Some (net, stored, image) -> Ok (net, stored, Some image)
        | None ->
          Result.map
            (fun net -> (net, None, None))
            (Obs.phase "netlist.build" (fun () -> load_circuit bench suite)))
  in
  let* pats =
    match (given, stored, patterns_file) with
    | Some pats, _, Some path -> check_width path net pats
    | _, Some pats, _ -> Ok pats
    | _ -> Ok (Campaign.test_set net)
  in
  Ok (net, pats, image)

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("error: " ^ msg);
    exit 1

(* --- Run-report plumbing (the observability layer's CLI surface) ----- *)

let stats_arg =
  let doc =
    "Collect counters and phase timers for the run and emit a JSON run \
     report: to stdout with a bare $(b,--stats), to $(docv) with \
     $(b,--stats=FILE).  The $(b,MDD_STATS) environment variable does the \
     same without touching the command line: a file path writes there, \
     any other non-empty value writes to stderr."
  in
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "stats" ] ~docv:"FILE" ~doc)

(* Where the report goes.  The flag wins over the environment; an env
   value that is not obviously a switch is treated as a path. *)
let stats_dest stats_flag =
  match stats_flag with
  | Some "-" | Some "" -> Some `Stdout
  | Some path -> Some (`File path)
  | None -> (
    match Sys.getenv_opt "MDD_STATS" with
    | None | Some "" -> None
    | Some ("1" | "-" | "true" | "yes") -> Some `Stderr
    | Some path -> Some (`File path))

let init_stats stats_flag =
  let dest = stats_dest stats_flag in
  if dest <> None then Obs.enable ();
  dest

let emit_stats dest ~meta =
  match dest with
  | None -> ()
  | Some dest -> (
    let report = Run_report.capture ~meta () in
    match dest with
    | `Stdout -> print_string (Run_report.to_json report)
    | `Stderr -> prerr_string (Run_report.to_json report)
    | `File path -> Run_report.write ~path report)

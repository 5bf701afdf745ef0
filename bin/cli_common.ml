(* Shared pieces of the command-line tools: circuit loading (from a
   `.bench` file or the built-in suite) and pattern-set sourcing. *)

open Cmdliner

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
      | None ->
        Error
          (Printf.sprintf "unknown circuit %S (try: %s)" name
             (String.concat ", "
                (Generators.suite_names @ List.map fst (Generators.tiers ()))))))
  | Some _, Some _ -> Error "give either --bench or --circuit, not both"
  | None, None -> Error "a circuit is required: --bench FILE or --circuit NAME"

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
     variable does the same.  Results are identical either way."
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
    "Directory for the design's persistent store.  Without \
     $(b,--patterns), the ATPG test set is loaded from here when a valid \
     copy exists, and otherwise generated and saved here (counters \
     tests.loads, tests.saves, tests.rejects) — with or without \
     $(b,--prewarm).  With $(b,--prewarm), a valid signature snapshot \
     for this (circuit, pattern set) is loaded instead of running the \
     sweep — the fleet pays the whole-pool simulation once per design \
     — and a live sweep saves its arena back here.  Every file is \
     validated against a digest of what it answers for and its \
     encoding version; a stale or corrupt file is rejected (counter \
     store.rejects or tests.rejects) and the run regenerates it.  The \
     MDD_SIG_STORE environment variable is the fallback.  Results are \
     identical either way."
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

(* Without a file, the ATPG set comes from [store_dir] when one is
   given and holds a valid copy (see [Campaign.test_set]). *)
let load_patterns ?store_dir net patterns_file =
  match patterns_file with
  | Some path ->
    Result.bind
      (Obs.phase "pattern.parse" (fun () -> Pattern.read_file path))
      (fun pats ->
        if Pattern.npis pats <> Netlist.num_pis net then
          Error
            (Printf.sprintf "%s: pattern width %d does not match circuit PI count %d"
               path (Pattern.npis pats) (Netlist.num_pis net))
        else Ok pats)
  | None -> Ok (Campaign.test_set ?store_dir net)

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

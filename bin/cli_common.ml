(* Shared pieces of the command-line tools: flag definitions and the
   environment switches, resolved into the arguments of the library's
   loaders ([Design]). *)

open Cmdliner

let bench_arg =
  let doc =
    "Read the circuit from a netlist file: ISCAS `.bench', or structural \
     Verilog when the name ends in `.v'."
  in
  Arg.(value & opt (some file) None & info [ "bench" ] ~docv:"FILE" ~doc)

let suite_arg =
  let doc = "Use a built-in benchmark circuit (see Table 1: c17, add8, alu8, ...)." in
  Arg.(value & opt (some string) None & info [ "c"; "circuit" ] ~docv:"NAME" ~doc)

(* The circuit the two flags name; building it is [Design]'s. *)
let circuit bench suite =
  match (bench, suite) with
  | Some path, None -> Ok (Design.File path)
  | None, Some name -> Ok (Design.Named name)
  | Some _, Some _ -> Error "give either --bench or --circuit, not both"
  | None, None -> Error "a circuit is required: --bench FILE or --circuit NAME"

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

let cover_arg =
  let doc =
    "Covering backend for the noassume engine: $(b,greedy) (the paper's \
     iterative cover, the default) or $(b,exact) (minimum-cardinality \
     cover via the implicit hitting-set loop, seeded with the greedy \
     result as an upper bound — never larger than greedy, and proven \
     minimum when the search completes)."
  in
  Arg.(
    value
    & opt (some (enum [ ("greedy", `Greedy); ("exact", `Exact) ])) None
    & info [ "cover" ] ~docv:"BACKEND" ~doc)

let store_dir_arg =
  let doc =
    "Directory of the design's store: one image file per design, holding \
     the netlist, the test set and the whole signature arena.  A valid \
     image for this circuit and test set is loaded — no netlist build, \
     no ATPG run and no signature simulation — and otherwise the run \
     builds what it needs, simulates every fault class's signature in \
     one sweep and saves the image here.  An image is keyed by the \
     circuit's source (a suite name and generator version, or a netlist \
     file's content digest) and the test set (the ATPG flow's \
     parameters, or the $(b,--patterns) set's digest), and checked \
     against a checksum and its encoding version; a stale or corrupt \
     image is rejected (counter store.rejects) and rewritten.  Without a \
     store, $(b,--batch-dir) and $(b,--serve) sweep the signatures once \
     before the first die and a single die simulates only the ones it \
     needs.  The MDD_SIG_STORE environment variable is the fallback.  \
     Results are identical either way."
  in
  Arg.(value & opt (some string) None & info [ "store-dir" ] ~docv:"DIR" ~doc)

let cover_budget_arg =
  let doc =
    "Node budget for the exact covering backend (branch-and-bound nodes \
     summed over the whole hitting-set loop; default 2000000).  On \
     exhaustion the run falls back to the greedy cover, counts \
     cover.budget_fallbacks and reports cover_complete=false.  N must be \
     at least 1."
  in
  let positive =
    let parse s =
      match Arg.conv_parser Arg.int s with
      | Ok n when n < 1 -> Error (`Msg (Printf.sprintf "%d is below 1" n))
      | r -> r
    in
    Arg.conv (parse, Arg.conv_printer Arg.int)
  in
  Arg.(value & opt (some positive) None & info [ "cover-budget" ] ~docv:"N" ~doc)

(* The covering backend the two flags name; only [Exact] reads the
   budget. *)
let cover =
  let backend backend budget =
    match backend with
    | None | Some `Greedy -> Noassume.Greedy
    | Some `Exact ->
      Noassume.Exact (Option.value budget ~default:Hitting_set.default_node_budget)
  in
  Term.(const backend $ cover_arg $ cover_budget_arg)

(* The MDD_SIG_STORE environment switch is resolved here, once —
   nothing in lib/ reads it.  The flag wins; any non-empty value names
   the store directory. *)
let store_dir flag =
  match (flag, Sys.getenv_opt "MDD_SIG_STORE") with
  | Some _, _ -> flag
  | None, (None | Some "") -> None
  | None, env -> env

(* Resolved-configuration metadata for `--stats` reports: read back from
   the config record, the process width and the switches the run
   actually used, never re-derived from the environment. *)
let config_meta (c : Noassume.config) ~store_dir =
  [
    ("domains", string_of_int (Parallel.default_domains ()));
    ("cover", match c.Noassume.cover with Greedy -> "greedy" | Exact _ -> "exact");
    ("store_dir", Option.value store_dir ~default:"off");
  ]

(* Pattern source: an explicit file, or the in-repo ATPG flow. *)
let patterns_arg =
  let doc = "Read test patterns from a file (one 0/1 line per pattern)." in
  Arg.(value & opt (some file) None & info [ "patterns" ] ~docv:"FILE" ~doc)

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

(* [body ()] runs the tool and returns the report's metadata and the
   exit code.  When a report was asked for, the body runs under a root
   sink and the report is written after it. *)
let with_stats stats_flag body =
  match stats_dest stats_flag with
  | None -> snd (body ())
  | Some dest ->
    let sink = Obs.sink () in
    let meta, code = Obs.with_sink sink body in
    let report = Run_report.capture ~sink ~meta () in
    (match dest with
    | `Stdout -> print_string (Run_report.to_json report)
    | `Stderr -> prerr_string (Run_report.to_json report)
    | `File path -> Run_report.write ~path report);
    code

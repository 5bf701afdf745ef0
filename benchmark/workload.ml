(* The four workloads, and what one run of a workload measures. *)

type kind =
  | Cli  (** One fresh [diagnose.exe] per die, one client. *)
  | Volume of { prewarm : bool; lot : int option }
      (** [Volume.diagnose_die] on an in-process session, one client.
          [prewarm]: the session is prewarmed as part of set-up.
          [lot = Some n]: every [n] consecutive dies get a session of
          their own, each starting cold, so a run is a sequence of equal
          lots and its latencies do not depend on how many dies the run
          reached. *)

type t = {
  name : string;
  circuit : string;
  patterns : int option;
      (** [Some n]: [n] random patterns, the same in every run, handed
          over as a pattern file.  [None]: the CLI's own ATPG test set. *)
  kind : kind;
  setups : int;  (** Fresh processes timed for [setup_s]. *)
  max_rate : float;
      (** Dies per second no run of this workload reaches on a 2-core
          host; sizes the die pool so a run never waits for inputs. *)
  check_every : int;  (** Every n-th die is re-diagnosed as a reference. *)
}

(* Why each workload exists is in README.md. *)
let all =
  [
    {
      name = "cli-atpg-rnd1k";
      circuit = "rnd1k";
      patterns = None;
      kind = Cli;
      setups = 1;
      max_rate = 1.;
      check_every = 1;
    };
    {
      name = "cli-store-rnd2k";
      circuit = "rnd2k";
      patterns = Some 252;
      kind = Cli;
      setups = 7;
      max_rate = 25.;
      check_every = 1;
    };
    {
      name = "volume-frozen-rnd2k";
      circuit = "rnd2k";
      patterns = Some 252;
      kind = Volume { prewarm = true; lot = None };
      setups = 7;
      max_rate = 30.;
      check_every = 8;
    };
    {
      name = "volume-lazy-rnd2k";
      circuit = "rnd2k";
      patterns = Some 252;
      kind = Volume { prewarm = false; lot = Some 32 };
      setups = 7;
      max_rate = 30.;
      check_every = 8;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Knobs of one run. *)
type opts = {
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;  (** Two dies, one set-up, two panel dies: checks shape only. *)
  work : string;  (** Scratch directory of this run. *)
}

let pool_size w o =
  if o.smoke then 2 else max 1 (int_of_float (Float.ceil (o.seconds *. w.max_rate)))

let setups w o = if o.smoke then 1 else w.setups
let panel_size o = if o.smoke then 2 else 16

(* Which dies a traced run traces: alternate blocks of four, so traced
   and untraced dies see every multiplicity and their median walls give
   the tracing overhead. *)
let traced i = i / 4 mod 2 = 0

let random_patterns_text w net =
  match w.patterns with
  | Some count ->
    let rng = Rng.create Dies.design_seed in
    Pattern.to_text (Pattern.random rng ~npis:(Netlist.num_pis net) ~count)
  | None -> invalid_arg "random_patterns_text: workload uses the ATPG test set"

(* --- Statistics ------------------------------------------------------ *)

(* Linear interpolation between order statistics; no extrapolation. *)
let quantile xs p =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let median xs = quantile xs 0.5

let mean xs =
  if xs = [||] then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* --- What a run reports ---------------------------------------------- *)

type result = {
  attempted : int;
  failed : int;
  digest : string;  (** MD5 of every timed die's report, in input order. *)
  panel_digest : string;  (** MD5 of the panel's reports; seed-independent. *)
  timed_quality : float * float * float;
      (** Diagnosability, success rate and resolution of the timed dies. *)
  metrics : (string * float * float array) list;
      (** Name, value and the samples it summarises. *)
  traced_dies : int list;
}

(* The tail percentile a run can estimate: p75 when ten or more dies lie
   beyond it, else the highest percentile that has ten beyond it, and
   the median when the run has fewer than 20 dies.  (p90 moved by up to
   28% between runs of the CLI workloads on a noisy 2-core host; p75 by
   up to 11%.) *)
let tail_quantile n = Float.max 0.5 (Float.min 0.75 (1. -. (10. /. float_of_int n)))

(* The metrics every run reports with tracing off. *)
let end_to_end ~setup_s ~lat_ms ~dies_per_s ~rss_mb ~quality =
  let field f = Array.of_list (List.map f quality) in
  let diag = field (fun q -> q.Metrics.diagnosability) in
  let succ = field (fun q -> if q.Metrics.success then 1. else 0.) in
  let res = field (fun q -> q.Metrics.resolution) in
  [
    ("setup_s", median setup_s, setup_s);
    ("die_latency_p50_ms", median lat_ms, lat_ms);
    ("die_latency_p75_ms", quantile lat_ms (tail_quantile (Array.length lat_ms)), lat_ms);
    ("dies_per_s", dies_per_s, [| dies_per_s |]);
    ("peak_rss_mb", median rss_mb, rss_mb);
    ("diagnosability", mean diag, diag);
    ("success_rate", mean succ, succ);
    ("resolution", mean res, res);
  ]

(* --- Per-layer metrics from the trace -------------------------------- *)

(* In-program phases of a die's run report, by the layer each feeds
   ([_ms] is appended). *)
let phase_layers =
  [
    ("explain.prep", "explain.prep");
    ("explain.sim", "explain.sim");
    ("explain.replay", "explain.replay");
    ("cover", "noassume.cover");
    ("refine", "noassume.refine");
    ("callouts", "noassume.callouts");
    ("validate-bridges", "noassume.validate_bridges");
    ("prewarm", "session.prewarm");
  ]

let counter_layers =
  [
    ("store.loads", "sig_cache.store_loads");
    ("cache.frozen_hits", "sig_cache.frozen_hits");
    ("cache.misses", "sig_cache.misses");
    ("cache.frozen_bytes", "sig_cache.frozen_bytes");
    ("sim.gate_events", "fault_sim.gate_events");
    ("sim.faults_simulated", "fault_sim.faults_simulated");
    ("scoring.evaluations", "scoring.evaluations");
    ("explain.candidates", "explain.candidates");
    ("parallel.spawns", "parallel.spawns");
    ("prewarm.faults", "session.prewarm_faults");
  ]

(* The spans whose self time is the time no layer records. *)
let span_layer = function
  | "cli.die" -> "cli.other"
  | "noassume.diagnose" -> "noassume.other"
  | name -> name

let counts : (int * string, float) Hashtbl.t = Hashtbl.create 256
let count_lock = Mutex.create ()

(* Zero counts are not stored: a die that lacks a layer counts 0 in
   the per-die median, and a set-up count (recorded outside any die) is
   not masked by the zeros of dies that never touch it. *)
let count ~die name v =
  if Spans.enabled () && v <> 0. then
    Mutex.protect count_lock (fun () -> Hashtbl.replace counts (die, name) v)

(* Attribute one die's run report (as [Run_report.to_json] writes it)
   to the die's span: phase times as attributions, counters as counts. *)
let attribute_report ~parent ~die json =
  let open Obs_json in
  List.iter
    (fun p ->
      let field k f = Option.bind (member k p) f in
      match (field "name" str, field "total_ms" num) with
      | Some name, Some ms ->
        Option.iter
          (fun layer -> Spans.attribute ~parent ~die layer (ms *. 1e6))
          (List.assoc_opt name phase_layers)
      | _ -> ())
    (Option.value (Option.bind (member "phases" json) list) ~default:[]);
  let counter name =
    Option.value
      (Option.bind (Option.bind (member "counters" json) (member name)) num)
      ~default:0.
  in
  List.iter (fun (c, layer) -> count ~die layer (counter c)) counter_layers;
  let hits = counter "cache.hits" +. counter "cache.frozen_hits" in
  let probes = hits +. counter "cache.misses" in
  count ~die "sig_cache.hit_ratio" (if probes > 0. then hits /. probes else 0.)

(* Per-layer metric values: a layer seen on any traced die is the
   median over the traced dies (0 on a die that never entered it); a
   layer seen only outside any die is its set-up value. *)
let layer_values ~traced_dies names =
  let values = Hashtbl.create 256 in
  Hashtbl.iter
    (fun (die, name) ns -> Spans.bump values (span_layer name ^ "_ms", die) (ns /. 1e6))
    (Spans.self_times ());
  Hashtbl.iter (fun (die, name) v -> Spans.bump values (name, die) v) counts;
  let get name die = Option.value (Hashtbl.find_opt values (name, die)) ~default:0. in
  List.map
    (fun name ->
      if List.exists (fun d -> Hashtbl.mem values (name, d)) traced_dies then
        (name, median (Array.of_list (List.map (get name) traced_dies)))
      else (name, get name (-1)))
    names

(* --- Files and processes --------------------------------------------- *)

let now_s () = Spans.now_ns () /. 1e9

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755

external wait4 : int -> int * int = "mdd_bench_wait4"
external self_maxrss_kb : unit -> int = "mdd_bench_self_maxrss"

let peak_rss_mb () = float_of_int (self_maxrss_kb ()) /. 1024.

(* Run a program to completion with an empty stdin, stdout to [out] and
   stderr next to it; returns exit code, wall seconds and peak RSS in
   MB.  Inherited MDD_* variables are dropped so only [env] configures
   the tool. *)
let spawn ~env ~out prog args =
  let inherited =
    List.filter
      (fun kv -> not (String.starts_with ~prefix:"MDD_" kv))
      (Array.to_list (Unix.environment ()))
  in
  let fd_in, no_input = Unix.pipe ~cloexec:true () in
  Unix.close no_input;
  let open_out path =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let fd_out = open_out out and fd_err = open_out (out ^ ".err") in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close [ fd_in; fd_out; fd_err ])
    (fun () ->
      let t0 = now_s () in
      let pid =
        Unix.create_process_env prog
          (Array.of_list (prog :: args))
          (Array.of_list (inherited @ env))
          fd_in fd_out fd_err
      in
      let code, rss_kb = wait4 pid in
      (code, now_s () -. t0, float_of_int rss_kb /. 1024.))

let digest texts = Digest.to_hex (Digest.string (String.concat "\x00" texts))

(* --- Checking and scoring -------------------------------------------- *)

let vdie net pats (d : Dies.die) =
  { Volume.name = Printf.sprintf "die-%04d" d.Dies.idx; dlog = Dies.parse net pats d }

(* The session reference diagnoses run on: lazy, and separate from the
   measured one (a fresh pattern object gets a cache instance of its
   own). *)
let reference_session net pats_text = Session.create net (Pattern.of_text pats_text)

(* Diagnose dies on the reference session, untimed, a die per core. *)
let reference session dies =
  let net = Session.netlist session and pats = Session.patterns session in
  Volume.run session
    (Array.to_list (Array.map (vdie net pats) dies))

(* Everything a run reports once its timed dies are done.  [traced]
   holds the traced dies with their wall seconds, [untraced] the other
   dies' walls; their medians give the tracing overhead. *)
let finish o ~reference_session ~setup_s ~lat_ms ~dies_per_s ~rss_mb ~texts ~failed
    ~attempted ~scored ~traced ~untraced =
  let net = Session.netlist reference_session in
  let score (d, r) = Dies.score net d r.Volume.result in
  let panel =
    Array.to_list
      (Dies.make net
         (Session.patterns reference_session)
         (Rng.create Dies.design_seed) (panel_size o))
  in
  let panel_results = reference reference_session (Array.of_list panel) in
  if traced <> [] then begin
    let self = Spans.self_times () in
    let get key = Option.value (Hashtbl.find_opt self key) ~default:0. in
    let other =
      List.fold_left
        (fun acc (i, _) -> acc +. get (i, "cli.die") +. get (i, "noassume.diagnose"))
        0. traced
    in
    let walls = Array.of_list (List.map snd traced) in
    count ~die:(-1) "trace.unattributed_frac"
      (other /. (1e9 *. Array.fold_left ( +. ) 0. walls));
    if untraced <> [] then
      count ~die:(-1) "trace.overhead_frac"
        ((median walls /. median (Array.of_list untraced)) -. 1.)
  end;
  {
    attempted;
    failed;
    digest = digest texts;
    panel_digest = digest (List.map (fun r -> r.Volume.text) panel_results);
    timed_quality = Metrics.aggregate (List.map score scored);
    metrics =
      end_to_end ~setup_s ~lat_ms ~dies_per_s ~rss_mb
        ~quality:(List.map score (List.combine panel panel_results));
    traced_dies = List.map fst traced;
  }

(** Parallel-scaling benchmark of the diagnosis kernels.

    Times [Explain.build_session] and the end-to-end
    [Noassume.diagnose_session] on one fixed multi-defect problem at
    several domain counts and reports wall-clock medians plus speedups
    versus one domain.  Every timed call runs on a fresh session, so it
    measures the cold kernel: session construction plus simulation of
    every candidate.  The bench
    executable runs this on the [rnd1k] suite circuit at 1/2/4/8 domains
    and writes [BENCH_parallel.json]; the test suite runs a tiny [c17]
    configuration as a smoke test of the domain pool. *)

type sample = {
  kernel : string;  (** ["explain-build"] or ["diagnose"]. *)
  domains : int;
  runs : int;  (** Timed runs behind the median (after one warm-up). *)
  median_ns : float;  (** Median wall-clock nanoseconds per run. *)
  speedup_vs_1 : float;  (** [median at 1 domain / median at this count]. *)
  stats : Run_report.t option;
      (** Counters of one extra untimed, instrumented run of the same
          kernel on a session one earlier untimed call has warmed (see
          [Obs]); [None] when [run] was told not to capture. *)
}

type report = { circuit : string; repeats : int; samples : sample list }

val run :
  ?circuit:string ->
  ?domain_counts:int list ->
  ?repeats:int ->
  ?multiplicity:int ->
  ?seed:int ->
  ?with_stats:bool ->
  unit ->
  report
(** Defaults: [rnd1k], domain counts [1; 2; 4; 8], 5 repeats, 3 injected
    defects, seed 99, stats capture on.  Stats capture resets the global
    [Obs] registry.  Raises [Invalid_argument] on an unknown suite
    circuit name. *)

val campaign_hit_rate :
  ?circuit:string ->
  ?trials:int ->
  ?multiplicity:int ->
  ?seed:int ->
  unit ->
  float * int * int
(** [(rate, hits, misses)] of the fault-signature cache across one
    campaign cell run sequentially ([domains:1]) from a cold cache —
    trials share the circuit and test set, so later trials hit what
    earlier trials simulated.  Deterministic for a fixed seed (parallel
    trials could race on a cold key and count an extra miss); used by the
    bench regression gate.  The campaign creates its own session, so the
    cache starts cold.  Temporarily enables the [Obs] registry,
    resetting it before returning.
    Defaults: [rnd1k], 4 trials, multiplicity 3, seed 99. *)

val to_table : report -> Table.t

val json_of_report : report -> string
(** Stable shape: [{"circuit", "repeats", "samples": [{"kernel",
    "domains", "runs", "median_ns", "speedup_vs_1", "stats"}]}], where
    ["stats"] is the sample's embedded run report without timing fields
    (see [Run_report.to_obs_json]) — everything in the file except
    [median_ns]/[speedup_vs_1] is deterministic for the fixed seed. *)

val write_json : path:string -> report -> unit

(** Volume-throughput bench: diagnoses/second of {!Volume.run} at
    several worker counts, two arms per count — a {e lazy-warm} session
    (cache filled by an untimed drain, every hit through the shard
    mutex) and a {e prewarm+frozen} session ({!Session.prewarm}, every
    hit a lock-free frozen-tier read) on distinct cache instances.
    Arms and worker counts are interleaved run by run, so machine-speed
    drift on a shared host hits both sides of each ratio equally, and
    speedups divide best (minimum) drain times: scheduling noise only
    ever adds time, so minima estimate true cost far more stably than
    medians. *)

type sample = {
  workers : int;
  runs : int;
  median_ms : float;  (** Lazy arm: full-queue drain, median of runs. *)
  best_ms : float;  (** Lazy arm: minimum of the timed runs. *)
  dps : float;  (** Lazy arm: diagnoses per second at the best drain. *)
  speedup_vs_1 : float;
      (** Lazy [best_ms] at 1 worker over lazy [best_ms] here. *)
  prewarm_median_ms : float;  (** Frozen arm: median drain. *)
  prewarm_best_ms : float;  (** Frozen arm: best drain. *)
  prewarm_dps : float;  (** Frozen arm: diagnoses/sec at best drain. *)
  prewarm_speedup : float;
      (** Lazy [best_ms] over frozen [prewarm_best_ms], same workers. *)
}

type report = {
  circuit : string;
  dies : int;
  repeats : int;
  prewarm_ms : float;
      (** One-time {!Session.prewarm} sweep + freeze cost — amortises
          over the die count (the rnd50k cold-start number). *)
  samples : sample list;
  skipped_workers : int list;
      (** Requested arms with more workers than
          [Domain.recommended_domain_count ()] — oversubscription can
          only regress, so they are recorded here (and in the JSON)
          instead of timed. *)
}

val run :
  ?circuit:string ->
  ?worker_counts:int list ->
  ?repeats:int ->
  ?dies:int ->
  ?patterns:int ->
  ?multiplicity:int ->
  ?seed:int ->
  unit ->
  report
(** Defaults: rnd2k, workers 1/2/4, 3 runs/point, 8 dies of
    multiplicity 3, 4 blocks of seeded-random patterns, seed 99.
    Worker counts above the available cores are not timed — they land
    in [skipped_workers]. *)

val best_speedup : report -> float
(** Best lazy-arm [speedup_vs_1] over the {e timed} multi-worker arms —
    what the regression gate floors ([min_volume_throughput]); [0.0]
    when every multi-worker arm was skipped (single-core host), which
    the gate treats as "no signal", not a regression. *)

val best_prewarm_speedup : report -> float
(** Best frozen-over-lazy throughput ratio across all worker counts —
    what gate 5 floors ([min_prewarm_speedup]).  Near 1.0 on one core
    (uncontended mutex ops are cheap); the win appears with real
    cores. *)

val to_table : report -> Table.t
val json_of_report : report -> string
val write_json : path:string -> report -> unit

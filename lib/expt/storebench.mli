(** Persistent-store bench: time-to-first-report of one die in a fresh
    process, three arms per circuit — {e cold} (no prewarm, the first
    diagnosis simulates the candidate pool), {e prewarm}
    ({!Session.prewarm} sweep + frozen first diagnose), and {e load}
    ({!Sig_cache.load_frozen} snapshot adoption + frozen first
    diagnose).  Arms are interleaved run by run, each on a fresh
    session, and the headline ratio divides best (minimum) times, the
    same noise defenses as {!Volumebench}.  Also pins the footprint
    story: packed arena bytes, the snapshot file size, and whether the
    full-pool arena fits the default cache budget. *)

type sample = {
  circuit : string;
  runs : int;
  faults : int;  (** Prewarm pool size (class representatives). *)
  cold_ms : float;  (** Best cold first-diagnose. *)
  prewarm_ms : float;  (** Best whole-pool sweep + freeze. *)
  prewarm_first_ms : float;  (** Best first-diagnose after the sweep. *)
  load_ms : float;  (** Best snapshot read + validate + publish. *)
  load_first_ms : float;  (** Best first-diagnose after the load. *)
  load_speedup : float;
      (** [cold_ms / (load_ms + load_first_ms)] — what a process restart
          saves by loading instead of simulating. *)
  arena_bytes : int;  (** Packed frozen tier, resident. *)
  file_bytes : int;  (** Snapshot on disk. *)
  budget_bytes : int;  (** Default cache budget the arena must fit. *)
  fits_budget : bool;  (** [arena_bytes <= budget_bytes]. *)
}

type report = { repeats : int; samples : sample list }

val run :
  ?circuits:string list ->
  ?store_dir:string ->
  ?repeats:int ->
  ?patterns:int ->
  ?multiplicity:int ->
  ?seed:int ->
  unit ->
  report
(** Defaults: rnd2k only, a per-process temp store directory, 3
    runs/arm, 4 blocks of seeded-random patterns, one multiplicity-3
    die, seed 99. *)

val min_load_speedup : report -> float
(** Worst [load_speedup] across circuits — what regression gate 7
    floors ([min_store_speedup]). *)

val to_table : report -> Table.t
val json_of_report : report -> string
val write_json : path:string -> report -> unit

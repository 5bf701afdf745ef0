(** One diagnosis run, serialized.

    A run report is one sink's {!Obs.snapshot} plus free-form string
    metadata (tool, circuit, method, domain count), rendered as deterministic
    JSON: every listing is sorted by name, numbers are printed with
    fixed formats, and the only nondeterministic fields — wall-clock
    phase durations and GC deltas — can be excluded so that two runs of
    the same seed produce byte-identical text.

    Shape ([timings:true]):
    {v
    {
      "version": 1,
      "meta": {"circuit": "c17", ...},
      "phases": [{"name": "cover", "count": 1,
                  "total_ms": 0.812, "gc_major": 0}, ...],
      "counters": {"cover.rounds": 3, ...},
      "dists": {"parallel.chunks_per_domain":
                 {"count": 2, "sum": 8, "min": 4, "max": 4}, ...}
    }
    v}
    With [timings:false] each phase entry keeps only ["name"] and
    ["count"] — both deterministic — and the rest is unchanged. *)

type t = { meta : (string * string) list; snap : Obs.snapshot }

val capture : sink:Obs.sink -> ?meta:(string * string) list -> unit -> t
(** Snapshot the sink's tallies ({!Obs.sink_snapshot}).  [meta] is
    sorted by key. *)

val to_json : ?timings:bool -> t -> string
(** Pretty-printed (one entry per line), trailing newline.  [timings]
    defaults to [true]. *)

val write : ?timings:bool -> path:string -> t -> unit

val to_obs_json : ?timings:bool -> t -> Obs_json.t
(** Same content as {!to_json} as an {!Obs_json.t} value — for embedding
    a report inside another JSON document (the volume service embeds
    one per die).  [Obs_json.to_string] of it is compact (one line). *)

val counters : t -> (string * int) list
(** The counter listing, sorted by name — what regression gates compare
    (see [bench/check_regress.ml]). *)

val counters_of_json : Obs_json.t -> (string * int) list
(** Re-extract the counter listing from parsed report JSON (a committed
    baseline), sorted by name.  Non-integer members are dropped. *)

(** Observability primitives: counters, value distributions and phase
    timers, aggregated in a process-global registry and snapshotted into
    {!Run_report} JSON.

    Design contract (see DESIGN.md §9):

    - {b Off by default, effectively free when off.}  Instrumented call
      sites check {!enabled} once per batch — never per event — and the
      innermost kernels keep plain [mutable int] fields that are folded
      into the registry only after the hot region (see
      [Fault_sim.stats]).  Nothing here allocates on the increment path.
    - {b Domain-safe.}  Counters are [int Atomic.t]; distribution and
      phase aggregation take a [Mutex] but are only touched at batch
      granularity.  Spans are plain values, so nested and concurrent
      phases need no domain-local state.
    - {b Deterministic.}  Counter and distribution values depend only on
      the work performed, never on timing or domain scheduling; snapshot
      listings are sorted by name.  Only span durations and GC deltas are
      nondeterministic, and {!Run_report.to_json} can exclude them.

    The clock is {!now_ns}, a monotonic clock: it never steps backwards
    when the wall clock is adjusted, so a phase time is never
    negative. *)

val enabled : unit -> bool
(** True when statistics collection is on: either the process-global
    flag (initialised from the [MDD_STATS] environment variable — any
    non-empty value enables) or a sink bound in the current domain (see
    {!with_sink}). *)

val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero every registered counter and distribution and drop all phase
    aggregates.  Registrations (the handles held by instrumented
    modules) survive and keep working. *)

(** {1 Counters} *)

type counter
(** A named monotone event count.  Handles are interned: [counter name]
    returns the same cell for the same name, so modules register theirs
    once at initialisation. *)

val counter : string -> counter
val incr : counter -> unit
val add : counter -> int -> unit

val value : counter -> int
(** Current count (sum over all domains). *)

(** {1 Distributions} *)

type dist
(** A named value distribution, kept as count/sum/min/max — enough for
    balance questions ("chunks per domain") without storing samples. *)

val dist : string -> dist
val record : dist -> int -> unit

(** {1 Phase timers} *)

val now_ns : unit -> float
(** Monotonic clock reading in nanoseconds, from an arbitrary origin.
    Only differences are meaningful.  Phase spans and the bench
    harnesses time with it. *)

type span
(** One open phase timing.  Spans are values, so they nest arbitrarily
    ([span_begin "a"] … [span_begin "b"] … [span_end b] … [span_end a])
    and each phase's elapsed time is attributed to its own name in
    full (no self-time subtraction). *)

val span_begin : string -> span
(** Starts timing when {!enabled}; otherwise returns an inert span. *)

val span_end : span -> unit
(** Adds elapsed time, one completion, and the major-GC-collection
    delta to the span's phase aggregate.  Ending an inert or
    already-ended span is a no-op. *)

val phase : string -> (unit -> 'a) -> 'a
(** [phase name f] = begin/[f ()]/end, exception-safe. *)

(** {1 Snapshots} *)

type phase_stat = {
  p_name : string;
  p_count : int;  (** Completed spans. *)
  p_total_ns : float;  (** Summed wall time. *)
  p_gc_major : int;  (** Major collections finished inside the phase. *)
}

type dist_stat = {
  d_name : string;
  d_count : int;
  d_sum : int;
  d_min : int;  (** 0 when [d_count = 0]. *)
  d_max : int;  (** 0 when [d_count = 0]. *)
}

type snapshot = {
  phases : phase_stat list;
  counters : (string * int) list;
  dists : dist_stat list;
}
(** All three listings sorted by name.  Counters and dists list every
    registered name, including zero-valued ones — the report doubles as
    the counter inventory. *)

val snapshot : unit -> snapshot

(** {1 Per-session sinks}

    A sink is a private registry.  While one is bound in the current
    domain (via {!with_sink}), every counter increment, dist sample and
    completed span routes into the sink instead of the process-global
    tables — so concurrent diagnoses, each under its own sink, don't
    interleave their statistics.  Binding is domain-local: nested
    fork-join workers spawned {e inside} a sink-bound region do not
    inherit the binding (their batch-granularity publishes land in the
    global registry as before); the volume service runs one whole
    diagnosis per domain, where everything executes in the binding
    domain and the sink captures it all. *)

type sink

val sink : unit -> sink
(** A fresh, empty sink. *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** [with_sink sk f] binds [sk] as the current domain's sink for the
    duration of [f] (restoring any previous binding after), and turns
    {!enabled} on for that domain regardless of the global flag. *)

val merge : sink -> unit
(** Fold the sink's tallies into the process-global registry and empty
    the sink.  Counter values add, dists combine count/sum/min/max,
    phase aggregates add.  Call after the sink's region has finished. *)

val sink_snapshot : sink -> snapshot
(** Snapshot the sink's private tallies.  Like {!snapshot}, the counter
    and dist listings enumerate every {e globally registered} name
    (zero-valued when the sink never saw it), so per-session reports
    keep the inventory property. *)

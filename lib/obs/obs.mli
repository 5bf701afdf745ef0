(** Observability primitives: counters, value distributions and phase
    timers, tallied in the {!sink} the caller binds and snapshotted
    into {!Run_report} JSON.  Tallies live only in sinks: an event
    bumps the sink bound in the current domain ({!with_sink}), and with
    none bound it records nothing.  What is process-wide is the
    inventory of registered names, never a count.

    Design contract (see DESIGN.md §9):

    - {b Off unless a sink is bound, effectively free when off.}
      Instrumented call sites check {!enabled} once per batch — never
      per event — and the innermost kernels keep plain [mutable int]
      fields that are folded into the bound sink only after the hot
      region (see [Fault_sim.publish_stats]).  Nothing here allocates on
      the increment path.
    - {b Domain-safe.}  Each sink keeps name-keyed tallies behind one
      [Mutex]; counters, dists and phases are only touched at batch
      granularity, so the lock is never a hot point.  Spans are plain
      values, so nested and concurrent phases need no domain-local
      state.
    - {b Deterministic.}  Counter and distribution values depend only on
      the work performed, never on timing or domain scheduling; snapshot
      listings are sorted by name.  Only span durations and GC deltas are
      nondeterministic, and {!Run_report.to_json} can exclude them.

    The clock is bechamel's [Monotonic_clock]: it never steps backwards
    when the wall clock is adjusted, so a phase time is never
    negative. *)

val enabled : unit -> bool
(** True when a sink is bound in the current domain (see
    {!with_sink}). *)

(** {1 Counters} *)

type counter
(** A named monotone event count.  Handles are interned names:
    [counter name] registers [name] in the inventory every snapshot
    lists, so modules register theirs once at initialisation. *)

val counter : string -> counter
val incr : counter -> unit
val add : counter -> int -> unit

(** {1 Distributions} *)

type dist
(** A named value distribution, kept as count/sum/min/max — enough for
    balance questions ("chunks per domain") without storing samples. *)

val dist : string -> dist
val record : dist -> int -> unit

(** {1 Phase timers} *)

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

(** {1 Sinks}

    A sink is a private registry.  While one is bound in the current
    domain (via {!with_sink}), every counter increment, dist sample and
    completed span routes into it, so concurrent diagnoses, each under
    its own sink, don't interleave their statistics.  Binding is
    domain-local, and [Parallel]'s fork-join workers re-bind their
    caller's sink ({!bound_sink}), so a sink captures the work of every
    domain its region fans out to. *)

type sink

val sink : unit -> sink
(** A fresh, empty sink. *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** [with_sink sk f] binds [sk] as the current domain's sink for the
    duration of [f], restoring any previous binding after. *)

val bound_sink : unit -> sink option
(** The sink bound in the current domain, [None] when events go
    nowhere.  A fork-join primitive reads it before spawning and
    re-binds it in each worker with {!with_sink}. *)

val merge : sink -> unit
(** Fold the sink's tallies into the sink bound in the current domain
    and empty it, through the same per-kind updates an event makes:
    counter values add, dists combine count/sum/min/max, phase
    aggregates add.  Does nothing when no sink is bound.  Call after
    the sink's region has finished. *)

val sink_snapshot : sink -> snapshot
(** Snapshot the sink's tallies.  The counter and dist listings
    enumerate every registered name (zero-valued when the sink never
    saw it), so every report keeps the inventory property. *)

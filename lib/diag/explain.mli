(** The explanation matrix — per-failing-output candidate analysis.

    This is the data structure behind "no assumptions on failing pattern
    characteristics": the unit of explanation is one failing
    [(pattern, output)] observation, never a whole pattern response.

    Candidates are net-level stuck lines (both polarities) seeded from
    the union of fan-in cones of the failing outputs — a structurally
    complete pool, unlike value-based critical path tracing, which can
    drop the true origin at reconvergent stems — and
    then validated by explicit single-fault simulation: candidate [c]
    {e covers} observation [(p, o)] iff simulating [c] alone on pattern
    [p] flips output [o].  What [c] predicts at {e other} outputs is
    recorded as misprediction counts but does not disqualify it — under
    multiple defects, other defects explain or mask the rest.  The
    SLAT-style exactness flag is also computed here so that the SLAT
    baseline and Table 2 share one simulation pass. *)

type t

val build_session : Session.t -> Datalog.t -> t
(** One pass of seeding + pruning + simulation against a prebuilt
    {!Session.t}.  The matrix is bit-identical for every domain count
    and whether its rows came from simulation or from the cache.

    Two exactness-preserving prunes shrink the simulated pool before
    any fault simulation runs: the {e activation
    screen} drops candidates whose stuck value equals the good value on
    every failing pattern (they flip no PO on any failing pattern, so
    they cover nothing and are never selectable), and
    {e equivalence-class collapse} ({!Fault_list.collapse}) simulates
    one representative per structural class and shares its matrix row
    with every member.  Screened candidates leave {!candidates};
    class members remain individually listed and indirect to the shared
    row.  Neither prune can change a diagnosis (DESIGN.md §10).

    Per-row signatures are looked up in, and on miss recorded into, the
    session's [Sig_cache] (one {!Sig_cache.missing} per build, keyed by
    {!Session.representative_key}): only the misses are simulated, by
    one {!Session.simulate} sweep at the process width.  Every
    row, fresh or cached, is then decoded into one reused buffer
    ({!Sig_cache.decode}) and fills the matrix through one loop.

    The build keeps per row only the {!covers} bits, one spurious word
    per pattern block and the two misprediction counts (DESIGN.md
    §12): nothing it allocates grows as rows × failing patterns. *)

val session : t -> Session.t
(** The session the matrix was built against — downstream phases pull
    the shared good machine, cache and config from here. *)

val netlist : t -> Netlist.t
val datalog : t -> Datalog.t

val candidates : t -> Fault_list.fault array
(** The validated pool (deduplicated, ascending): the seeds that
    survived the activation screen.  Per-candidate accessors below
    accept indices into this array; class-equivalent candidates answer
    from one shared matrix row. *)

val num_seeded : t -> int
(** Size of the seed pool {e before} the activation screen — the
    "candidates considered" figure reports quote: both polarities of
    every net in the union of the failing outputs' fan-in cones. *)

val observations : t -> Datalog.observation array
(** All failing observations, the rows to be covered. *)

val failing : t -> int array
(** Failing pattern indices, ascending ([failing_index] inverse). *)

val covers : t -> int -> Bitvec.t
(** [covers t c]: bit per observation index — the observations candidate
    [c] explains. *)

val matched : t -> int -> int -> int
(** [matched t c fp]: on failing pattern [failing t.(fp)], how many of
    its observed failing outputs candidate [c] flips.  Derived from
    {!covers}: the pattern's observations are a contiguous index range
    (observations are in pattern order), counted a word at a time. *)

val spurious_any : t -> int -> int -> bool
(** [spurious_any t c fp]: candidate [c] flips at least one output on
    failing pattern [failing t.(fp)] that was observed passing.  A bit
    test in the row's spurious word for the pattern's block; the count
    lives in {!mispredict_fail}, summed per row. *)

val exact : t -> int -> int -> bool
(** SLAT exactness: candidate [c] reproduces failing pattern [fp]'s
    response exactly (all failing outputs, nothing else) —
    [matched t c fp] equals the pattern's failing-output count and
    [not (spurious_any t c fp)].  Derived from {!covers} like
    {!matched}: the pattern's observation range must be full, which
    costs a few words whatever the pattern count. *)

val mispredict_fail : t -> int -> int
(** Total spurious predictions over all failing patterns: outputs
    observed passing that candidate [c] flips, summed over every
    failing pattern.  An O(1) read of a count the fill keeps per row. *)

val mispredict_pass : t -> int -> int
(** Number of passing patterns on which the candidate predicts at least
    one failure. *)

val find_candidate : t -> Fault_list.fault -> int option
(** Index of a fault in the candidate pool. *)

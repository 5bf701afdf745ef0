(** Whole-multiplet scoring by true multiple-fault simulation.

    Per-candidate analysis cannot see interactions: two stuck lines can
    mask each other's errors or create failures neither produces alone.
    A multiplet is therefore judged by simulating all of its members
    *simultaneously* — one multi-site PPSFP sweep from the good
    machine, or a change sweep against a held multiplet it differs from
    at a site or two, equal by construction to an overlay resimulation
    — and comparing the
    predicted responses against the datalog, observation by
    observation. *)

type score = {
  explained : int;  (** Observed failing (pattern, PO) pairs reproduced. *)
  missed : int;  (** Observed failing pairs the multiplet does not produce. *)
  spurious_fail : int;  (** Predicted-failing pairs on failing patterns
                            that were observed passing. *)
  spurious_pass : int;  (** Predicted-failing pairs on patterns that
                            passed entirely. *)
}

val penalty : score -> int
(** [missed * 10 + spurious_fail * 2 + spurious_pass]: the hill-climbing
    objective.  Missing an observed failure is much worse than predicting
    an extra one — real defects include behaviours, like intermittents
    and condition-gated opens, that stuck-at multiplets necessarily
    over-predict. *)

val compare_score : score -> score -> int
(** Ascending in {!penalty}, ties broken by fewer spurious then more
    explained. *)

val overlay_of_multiplet : Fault_list.fault list -> Logic_sim.override list
(** The pin rule every scorer sweep follows, as overrides: a site
    appearing with one polarity becomes a stuck override; a site
    appearing with {e both} polarities is a byzantine hypothesis (open /
    intermittent / bridge victim) and becomes a value {e flip} — two
    contradictory stuck overrides on one net would otherwise shadow each
    other and the multiplet could never explain both directions.
    Test-only: the oracle [Reference]'s overlay scorer resimulates it, and
    [test_kernel_oracle] checks every sweep against that. *)

val score_triples : Datalog.words -> npos:int -> int array -> score
(** Score one single-fault signature, given as the canonical
    [(block, PO, diff-word)] triples of {!Sig_cache} with every word
    masked to its block's live width, against the datalog's
    {!Datalog.observed_words}: a single stuck line's predicted failures
    are exactly its signature, so no simulation is needed.  [npos] is
    the datalog's PO count. *)

type t
(** A scorer: the scratch one diagnosis scores its hypotheses on — a
    {!Session.simulator} over the session's blocks, the datalog's
    {!Datalog.observed_words}, the held base's diff words and score,
    the flip-sweep buffer of the screens and bridges, and the bridge
    scorer's cone-marking arrays.  The diagnosis that
    creates it owns it; it is not shared across domains, and nothing
    else holds it, so it goes with the diagnosis (DESIGN.md §6a,
    §11). *)

val create : Session.t -> Datalog.t -> t
(** [create session dlog] builds a scorer for [dlog] on [session]'s
    problem (no simulation).  Its simulator reads the session's
    transposed good words; the scorer allocates only its own delta
    slab and scratch. *)

val hold : t -> Fault_list.fault list -> score
(** [hold t base] sweeps [base] from the good machine
    ({!Fault_sim.hold}), every site pinned as {!overlay_of_multiplet}
    pins it, and holds its faulty machine, diff words and score as the
    base of {!evaluate_trial}, replacing any earlier base — no sweep
    when the held base is already [base].  Either way the simulator then
    reads the base's machine.  Returns the base's score — the same
    score as a full overlay resimulation of {!overlay_of_multiplet}
    [base], by construction; not counted as ["scoring.evaluations"]. *)

val evaluate_multiplet : t -> Fault_list.fault list -> score
(** {!hold} plus one counted ["scoring.evaluations"]: the scorer of
    one-shot scores (no-validate, SLAT).  Hypothesis searches hold a
    base and score trials against it ({!evaluate_trial}). *)

val evaluate_trial : t -> Fault_list.fault list -> score
(** [evaluate_trial t trial] scores a multiplet that differs from the
    held base at a site or two — a member dropped, one added — by one
    change sweep ({!Fault_sim.sweep}): each site whose
    polarity set differs is re-pinned (no polarity frees it, one holds
    it, both flip it), only those sites' cones propagate, and the base
    score is corrected on the (block, PO) words that changed.  The
    same score as {!evaluate_multiplet} [t trial], exactly (DESIGN.md
    §10); a trial equal to the base costs no sweep.  Counts one
    ["scoring.evaluations"].  Raises [Invalid_argument] when no base is
    held yet; {!evaluate_multiplet} holds its multiplet,
    {!screen_aggressors} the empty one and {!evaluate_bridges} its
    [rest]. *)

val screen_aggressors : t -> victim:Netlist.net -> Netlist.net list -> score list
(** [screen_aggressors t ~victim aggressors] scores, in [aggressors]
    order, each dominant-bridge hypothesis "[victim] follows [a]" as a
    single defect: the single-site injection at [victim] of the error
    word [good(victim) lxor good(a)] in every block, against the
    datalog.  The cheap screen that ranks bridge aggressors.
    Single-site injection is lane-wise, so one sweep with every live
    pattern of [victim] flipped serves the whole list: each hypothesis'
    diff words are the flip sweep's words masked by its per-block delta
    (DESIGN.md §10), and scoring one is popcounts only.  Holds the empty
    multiplet and runs one {!Fault_sim.sweep} per call, the victim held
    at [lnot good(victim)] — none for an empty list.  Not counted as
    ["scoring.evaluations"]. *)

val evaluate_bridges :
  t ->
  rest:Fault_list.fault list ->
  victim:Netlist.net ->
  (Netlist.net * Defect.bridge_kind) list ->
  score list
(** [evaluate_bridges t ~rest ~victim hyps] scores each
    (aggressor, kind) bridge hypothesis on [victim] together with the
    multiplet [rest] (which must not pin [victim]), in [hyps] order:
    each score equals that of an overlay resimulation of
    [overlay_of_multiplet rest @ Defect.overlay_all [bridge]], including bridges that feed back through their own fanout cone,
    which the overlay simulator leaves wherever its
    [Logic_sim.max_sweeps] cap stops them.  One base sweep of [rest]
    ({!hold}, which it leaves held), then change sweeps on top of it:
    one with the victim flipped on every live lane, one with the
    aggressor flipped per wired aggressor upstream of the victim, and
    one per wired hypothesis, with held words derived lane by lane
    (DESIGN.md §6a).  A dominant hypothesis holds the victim alone, so
    it is scored off the victim's flip sweep, masked by the lanes its
    held word changes (DESIGN.md §10).  Each score is the rest's,
    corrected on the words that changed.  Counts one
    ["scoring.evaluations"] and one ["bridges.hypotheses"] per
    hypothesis, and ["bridges.feedback"] for those whose bridge closes
    a loop.  Raises [Invalid_argument] when an aggressor is the
    victim. *)

val pp : Format.formatter -> score -> unit

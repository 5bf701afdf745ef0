(** Whole-multiplet scoring by true multiple-fault simulation.

    Per-candidate analysis cannot see interactions: two stuck lines can
    mask each other's errors or create failures neither produces alone.
    A multiplet is therefore judged by simulating all of its members
    *simultaneously* — one multi-site PPSFP sweep, equal by construction
    to an overlay resimulation — and comparing the predicted responses
    against the datalog, observation by observation. *)

type score = {
  explained : int;  (** Observed failing (pattern, PO) pairs reproduced. *)
  missed : int;  (** Observed failing pairs the multiplet does not produce. *)
  spurious_fail : int;  (** Predicted-failing pairs on failing patterns
                            that were observed passing. *)
  spurious_pass : int;  (** Predicted-failing pairs on patterns that
                            passed entirely. *)
}

val total_observations : score -> int
(** [explained + missed]: the datalog's failing-pair count. *)

val penalty : score -> int
(** [missed * 10 + spurious_fail * 2 + spurious_pass]: the hill-climbing
    objective.  Missing an observed failure is much worse than predicting
    an extra one — real defects include behaviours, like intermittents
    and condition-gated opens, that stuck-at multiplets necessarily
    over-predict. *)

val perfect : score -> bool
(** No misses and no spurious predictions. *)

val compare_score : score -> score -> int
(** Ascending in {!penalty}, ties broken by fewer spurious then more
    explained. *)

val overlay_of_multiplet : Fault_list.fault list -> Logic_sim.override list
(** A site appearing with one polarity becomes a stuck override; a site
    appearing with {e both} polarities is a byzantine hypothesis (open /
    intermittent / bridge victim) and becomes a value {e flip} — two
    contradictory stuck overrides on one net would otherwise shadow each
    other and the multiplet could never explain both directions. *)

val evaluate_multiplet :
  ?goods:Logic_sim.net_values array ->
  ?reach:Po_reach.t ->
  Netlist.t ->
  Pattern.t ->
  Datalog.t ->
  Fault_list.fault list ->
  score
(** Score the multiplet by one PPSFP delta-propagation sweep
    ({!Fault_sim.batch_multiplet_diffs}) — the same score as a full
    overlay resimulation of {!overlay_of_multiplet}, by construction.
    The sweep runs on a domain-local scratch per (netlist, pattern
    set), built on first use from [goods] (the good-machine words of
    every block, in [Pattern.blocks] order) and [reach]
    (session-threaded callers pass [Session.goods] and
    [Session.reach]) and shared with {!screen_delta} and
    {!evaluate_bridges}. *)

val screen_delta :
  ?goods:Logic_sim.net_values array ->
  ?reach:Po_reach.t ->
  Netlist.t ->
  Pattern.t ->
  Datalog.t ->
  site:Netlist.net ->
  deltas:int array ->
  score
(** Score one single-site injection of an arbitrary error word per
    block ([deltas], as {!Fault_sim.batch_po_diffs_delta}) against the
    datalog, on the same scratch as {!evaluate_multiplet}.  The cheap
    single-defect screen of bridge aggressors; not counted as a
    ["scoring.evaluations"]. *)

val evaluate_bridges :
  ?goods:Logic_sim.net_values array ->
  ?reach:Po_reach.t ->
  Netlist.t ->
  Pattern.t ->
  Datalog.t ->
  rest:Fault_list.fault list ->
  victim:Netlist.net ->
  (Netlist.net * Defect.bridge_kind) list ->
  score list
(** [evaluate_bridges net pats dlog ~rest ~victim hyps] scores each
    (aggressor, kind) bridge hypothesis on [victim] together with the
    multiplet [rest] (which must not pin [victim]), in [hyps] order:
    each score equals that of an overlay resimulation of
    [overlay_of_multiplet rest @ Defect.overlay bridge], including bridges that feed back through their own fanout cone,
    which the overlay simulator leaves wherever its
    [Logic_sim.max_sweeps] cap stops them.  One read sweep of [rest],
    two more (victim held at 0 and at 1) when some aggressor lies in
    the victim's fanout cone, two per wired aggressor upstream of the
    victim, then one {!Fault_sim.batch_multiplet_diffs} sweep per
    hypothesis with held words derived lane by lane (DESIGN.md §6a).
    Counts one ["scoring.evaluations"] and one ["bridges.hypotheses"]
    per hypothesis, and ["bridges.feedback"] for those whose bridge
    closes a loop.  Raises [Invalid_argument] when an aggressor is the
    victim. *)

val pp : Format.formatter -> score -> unit

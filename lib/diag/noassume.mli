(** The paper's contribution: multiple-defect diagnosis with no
    assumptions on failing-pattern characteristics.

    Pipeline (see DESIGN.md section 1):

    + build the per-observation explanation matrix ({!Explain});
    + greedy covering of failing observations by stuck-line candidates,
      ties broken towards candidates with fewer mispredictions;
    + multiplet validation and refinement by {e simultaneous}
      multiple-fault simulation ({!Scoring}) — drop and swap members
      while the penalty improves;
    + merge per-site callouts and attribute the fault models consistent
      with each site's explained behaviour (stuck / bridge with inferred
      aggressors / byzantine).

    The configuration travels with each call, never with the session:
    one session serves dies diagnosed under different configurations.
    Beside the covering backend, the switches exist for the ablation
    benches: turning [validate] or [tie_break] off, or forcing
    [per_pattern] explanation, reproduces the failure modes of the
    assumption-laden methods. *)

(** Covering backend: the paper's greedy cover, or the exact
    minimum-cardinality cover via the implicit hitting-set loop
    ({!Hitting_set}, DESIGN.md §13) under a node budget summed over the
    whole loop ({!Hitting_set.default_node_budget} is the CLI's
    default).  [Exact] seeds with the greedy result as an upper bound
    and falls back to it (with a warning counter) when the budget is
    exhausted, so it never produces a worse multiplet than [Greedy]. *)
type cover = Greedy | Exact of int

type config = {
  cover : cover;  (** Covering backend. *)
  tie_break : bool;  (** Prefer low-misprediction candidates on ties. *)
  validate : bool;  (** Run the multiplet refinement loop. *)
  per_pattern : bool;  (** Ablation: only exact (SLAT-style) explanations
                           may cover — re-imposes the assumption. *)
  max_multiplet : int;  (** Hard cap on multiplet size. *)
  layout : (Layout.t * float) option;
      (** Physical placement knowledge: when present, bridge aggressor
          candidates are restricted to the victim's neighbourhood within
          the given radius — what an extracted-layout flow does. *)
}

val default_config : config
(** [cover = Greedy; tie_break = true; validate = true;
    per_pattern = false; max_multiplet = 12; layout = None]. *)

(** Fault models consistent with a called-out site. *)
type model =
  | Stuck_at of bool
  | Bridge_victim of Netlist.net list
      (** Plausible aggressors: nets carrying the needed faulty value on
          every explaining pattern (capped list). *)
  | Bridge_confirmed of { aggressor : Netlist.net; kind : Defect.bridge_kind }
      (** A specific bridge hypothesis that, simulated as an actual
          bridge overlay in place of the site's stuck lines, strictly
          improved the whole-multiplet match.  The aggressor then counts
          as a called-out net too (the physical short involves both). *)
  | Byzantine
      (** Both polarities needed and no consistent aggressor: open,
          intermittent or feedback-bridge behaviour. *)

type callout = {
  site : Netlist.net;
  polarities : bool list;  (** Stuck polarities chosen for this site. *)
  models : model list;
  explained_obs : int;  (** Observations this site's members covered. *)
}

type result = {
  multiplet : Fault_list.fault list;  (** Final stuck-line multiplet. *)
  callouts : callout list;  (** Merged per-site report, best first. *)
  score : Scoring.score;  (** Simultaneous-simulation match. *)
  candidates_considered : int;
  refinement_steps : int;  (** Accepted drop/swap moves. *)
  cover_minimum : int option;
      (** Under [Exact]: proven minimum cover cardinality
          ({!Hitting_set}); [None] under [Greedy], on budget fallback,
          or when no cover within [max_multiplet] exists. *)
  cover_complete : bool;
      (** False only when the exact backend exhausted its node budget
          and fell back to the greedy cover (counted as
          ["cover.budget_fallbacks"]); always true under [Greedy]. *)
}

val diagnose_session : ?config:config -> Session.t -> Datalog.t -> result
(** Full pipeline against a prebuilt (warm) session ([config] defaults
    to {!default_config}; the kernels run at {!Parallel}'s width).
    This is the volume-service entry point: one shared session, many
    datalogs. *)

val diagnose_matrix : ?config:config -> Explain.t -> result
(** Variant reusing a prebuilt explanation matrix (the campaign harness
    shares one matrix between this method and the SLAT baseline); the
    test set is the matrix's session's. *)

val callout_nets : result -> Netlist.net list
(** Sites in report order, followed by the aggressors of confirmed
    bridges — what the metrics score. *)

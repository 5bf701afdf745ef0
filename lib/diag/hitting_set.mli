(** Implicit hitting-set minimum cover over the explanation matrix —
    the exact backend behind [--cover=exact].

    A cover of the observation matrix is exactly a hitting set of the
    family [{ explainers(o) | o failing observation }], so the minimum
    cover is found by revealing that family lazily: solve a small
    hitting-set instance, find an observation the optimum leaves
    uncovered, add its explainer set as a new constraint, re-solve.
    When the sub-solver's optimum covers everything the sandwich
    argument proves it minimum — the optimum of a constraint subset
    lower-bounds the full optimum, a feasible cover upper-bounds it
    (DESIGN.md §13).

    The greedy cover of {!Noassume} seeds the loop as an upper bound:
    the sub-solver only searches strictly below it, so when greedy is
    already minimal the loop exits after proving the first few
    sub-instances dry, and the result can never be larger than the
    seed.  On larger matrices greedy routinely overshoots (its pair
    moves and misprediction discounts trade cardinality for caution)
    and the loop proves a strictly smaller cover.

    This is the library's one exact covering search: {!Solver} is its
    incremental core, and [Tables.ablation_exact] measures greedy
    against it.  The tests check it against a whole-matrix branch and
    bound that lives only in the test suite ([Reference.exact_cover]). *)

(** Incremental minimum hitting-set core — the sub-solver of the
    implicit hitting-set loop below (DESIGN.md §13).

    Elements are opaque non-negative ints (the diagnosis layer passes
    candidate indices of an {!Explain.t}); a {e set} is a group of
    elements of which at least one must be chosen.  Sets are added one
    at a time as the loop discovers violated constraints, and each
    re-solve carries the previous proven optimum forward as a lower
    bound — adding constraints can only grow the optimum, which is what
    makes re-solving incremental rather than from scratch. *)
module Solver : sig
  type t

  type outcome = {
    hitting : int list option;
        (** A minimum hitting set strictly smaller than [upper_bound];
            [None] with [proved = true] proves none exists. *)
    proved : bool;
        (** False when the node budget ran out; [hitting] is then the
            best unproven solution found, if any. *)
    nodes : int;  (** Search nodes expanded by this solve. *)
    ub_cuts : int;  (** Branches cut by the (tightening) upper bound. *)
  }

  val create : unit -> t

  val add_set : t -> int array -> unit
  (** Raises [Invalid_argument] on an empty set (it can never be hit —
      the caller must filter unhittable constraints out). *)

  val lower_bound : t -> int
  (** Proven lower bound on the optimum, raised by every proved
      {!solve}; 0 initially. *)

  val solve : ?upper_bound:int -> node_budget:int -> t -> outcome
  (** Branch and bound: branch on the unhit set with the fewest
      elements (first added wins ties), try its elements in array
      order, cut when depth plus a greedy count of pairwise-disjoint
      unhit sets reaches [min upper_bound best_so_far], and stop
      descending once a solution matching {!lower_bound} lands (it is
      optimal).  Deterministic for a fixed add-sequence. *)
end

type result = {
  cover : int list;
      (** Candidate indices of the minimum cover.  When the seed is
          proven minimum this is the seed list {e unchanged, in its
          original order}, so downstream refinement, callouts and
          reports are byte-identical to the greedy backend; a strictly
          smaller cover is returned sorted ascending. *)
  minimum : int option;
      (** Proven minimum cardinality over the coverable observations;
          [None] when the budget ran out or no cover within [max_size]
          exists. *)
  complete : bool;
      (** False when [node_budget] was exhausted mid-proof — [cover] is
          then the seed, with no minimality claim. *)
  improved : bool;
      (** The exact cover is strictly smaller than the seed. *)
  iterations : int;  (** Hitting-set loop iterations (sets revealed). *)
  nodes : int;  (** Branch-and-bound nodes summed over all sub-solves. *)
}

val default_node_budget : int
(** The exact backend's node budget when none is given
    ([--cover-budget]): 2,000,000 branch-and-bound nodes, summed over
    the whole loop. *)

val solve :
  node_budget:int ->
  max_size:int ->
  ?covers:Bitvec.t array ->
  ?seed:int list ->
  Explain.t ->
  result
(** [solve m] finds a minimum-cardinality candidate cover of the
    coverable observations of [m] (observations no candidate explains
    drop out of the instance, exactly as greedy leaves them uncovered).

    [covers] overrides the per-candidate cover vectors — pass the
    ablation-adjusted vectors {!Noassume} computed so both backends
    solve the same instance.  [seed] is a known cover used as the upper
    bound (typically the greedy result); if it does not cover every
    coverable observation (greedy stopped at its multiplet cap) it
    seeds nothing and the search runs up to [max_size], the caller's
    cap ({!Noassume} passes its [max_multiplet]).  [node_budget] bounds
    the summed branch-and-bound nodes ({!Noassume} passes the budget
    of its [Exact] backend).

    Deterministic: observation and element orders are fixed, ties break
    to the lowest index.  Counts ["cover.hs_iterations"] and
    ["cover.upper_bound_cuts"] when {!Obs.enabled}. *)

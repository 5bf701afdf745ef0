(** Exact minimum-cardinality covering — the reference the greedy engine
    is measured against.

    The covering step of {!Noassume} is greedy for speed; this module
    solves the same instance exactly by branch and bound, enumerating
    {e all} minimum-size multiplets that cover every failing observation.
    It is exponential in the worst case and meant for the ablation bench
    and for small, high-stakes cases (a failure analyst holding one die
    can afford minutes), so the search is budgeted and reports whether it
    completed. *)

type result = {
  multiplets : Fault_list.fault list list;
      (** All minimum-cardinality covers found (each sorted), up to
          [max_solutions]; empty when the observations cannot be covered
          at all. *)
  minimum : int option;  (** Cardinality of the minimum cover, if any. *)
  complete : bool;
      (** False when the node budget was exhausted — the result is then
          a best effort, not a proof of minimality. *)
  nodes : int;  (** Search nodes expanded. *)
}

(** Incremental minimum hitting-set core — the sub-solver of the
    implicit hitting-set loop ({!Hitting_set}, DESIGN.md §13).

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

  val num_sets : t -> int

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

val solve :
  ?max_size:int ->
  ?max_solutions:int ->
  ?node_budget:int ->
  ?upper_bound:int ->
  Explain.t ->
  result
(** [solve m] covers the observation rows of the explanation matrix with
    stuck-line candidates.  Defaults: [max_size = 8],
    [max_solutions = 16], [node_budget = 200_000].  With [upper_bound]
    only covers strictly smaller than the bound are enumerated —
    [minimum = None] with [complete = true] then proves no such cover
    exists (the caller's bound-sized cover is minimum), and the bound
    prunes the search. *)

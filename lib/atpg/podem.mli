(** PODEM automatic test pattern generation for net stuck-at faults.

    Classic PODEM (Goel 1981): decisions are made only on primary inputs,
    objectives are derived by backtracing through the circuit, and every
    decision is validated by three-valued implication of the good and the
    faulty machine.  Used by {!Tpg} to top up random patterns to (near-)
    complete stuck-at coverage, which is the test-set quality diagnosis
    experiments assume.

    Implication is incremental: both machines live in one dual-rail
    word pair per net, a decision re-evaluates only the gates whose
    inputs changed (level by level through the fanout CSR) and only
    inside the fault's region (its fanout cone closed under fanin, the
    nets the search reads), a backtrack restores the rails from an undo
    trail instead of re-implying, and the detection, X-path and
    D-frontier scans walk only the fault site's fanout cone (DESIGN.md
    §6b). *)

type result =
  | Test of bool array
      (** A PI vector detecting the fault.  Unassigned inputs are filled
          with deterministic pseudo-random values. *)
  | Untestable
      (** Proven redundant: the decision space was exhausted. *)
  | Aborted
      (** Backtrack limit hit before a proof either way. *)

type t
(** Per-netlist scratch: PI index, level buckets, rails, cone and
    region buffers, decision stack and undo trail.
    Create one per test-generation run, or one per domain of a parallel
    one, and reuse it for every fault; not safe to share between
    domains. *)

val create : Netlist.t -> t

type work = {
  calls : int;  (** Runs: 1 for one {!run}. *)
  backtracks : int;  (** An aborted run counts limit + 1. *)
  aborted : int;  (** Runs that hit the backtrack limit. *)
  implications : int;
      (** Forward gate evaluations in the implication engine: the sweep
          that seeds each run, and each decision's and flip's drain.  An
          undo evaluates nothing. *)
}
(** What runs cost.  Each {!run} returns its own, so a caller that
    runs faults speculatively can count only the runs it keeps. *)

val run :
  ?backtrack_limit:int -> ?fill_seed:int -> t -> Fault_list.fault -> result * work
(** [run e fault] searches for a test for [fault] on [e]'s netlist.  The
    default backtrack limit is 512.  The result and its work depend only
    on the netlist, the fault and the two parameters — never on what [e]
    ran before. *)

val no_work : work
val add_work : work -> work -> work

val publish : work -> unit
(** Add [work] to the bound {!Obs} sink, if any: [tpg.podem_calls],
    [tpg.backtracks], [tpg.aborted] and [tpg.implications]. *)

(** Tester datalog: which outputs failed on which patterns.

    The only information diagnosis gets from the tester.  Entries exist
    for failing patterns only; every pattern of the applied set that has
    no entry passed.  Since outputs are binary, "PO [o] failed on pattern
    [p]" pins its observed value to the complement of the good-machine
    value — no separate observed-value storage is needed. *)

type t

type observation = { pattern : int; po : int }
(** One failing (pattern index, PO position) pair. *)

val of_responses :
  expected:Logic_sim.responses -> observed:Logic_sim.responses -> t
(** Diff two response sets into a datalog (the tester's comparator). *)

val npatterns : t -> int
val npos : t -> int

val failing_patterns : t -> int list
(** Ascending pattern indices with at least one failing output. *)

val num_failing : t -> int

val failing_pos : t -> int -> int list
(** Failing PO positions of one pattern, ascending (empty when it
    passed).  Test-only: the plain accessor the tests read a pattern's
    logged failures through; the engine reads {!observed_words}. *)

val observations : t -> observation array
(** Every failing (pattern, PO) pair, ordered by pattern then PO. *)

type words = {
  fail : int array;
      (** Per pattern block: bit [k] of [fail.(bi)] is set iff pattern
          [base + k] of block [bi] failed. *)
  obs : int array;
      (** Per (block, PO), at [bi * npos + oi]: bit [k] is set iff PO
          [oi] failed on pattern [base + k]. *)
  total : int;  (** Failing (pattern, PO) pairs: the set bits of [obs]. *)
}
(** The datalog as words over a pattern blocking.  The explanation
    matrix and every scorer split each diff word with these tables. *)

val observed_words : t -> Pattern.block array -> words

val to_text : t -> string
(** Line-oriented text form: [fail <pattern> : <po> <po> ...]. *)

val of_text : npatterns:int -> npos:int -> string -> t
(** Parse {!to_text} output.  Raises [Invalid_argument] naming the
    line (counted from 1) on a malformed line, a number that is not
    plain decimal digits, a pattern index or PO position out of range,
    a pattern listed twice or an empty failing-output list. *)

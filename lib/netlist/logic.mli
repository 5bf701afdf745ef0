(** Word-parallel two-valued logic.

    The library's one logic domain: two-valued values packed 63
    patterns per OCaml [int] word, for the bit-parallel good-machine and
    fault simulators.  PODEM packs its ternary state into its own
    dual-rail words (DESIGN.md §6b); the scalar and three-valued
    evaluators survive only as test oracles.

    A word carries up to {!Bitvec.word_bits} pattern bits.  Words are
    not masked during simulation; consumers mask with [mask_of_width]
    before comparing or counting. *)

val ones : int
(** All 63 usable bits set. *)

val mask_of_width : int -> int
(** [mask_of_width k] has the low [k] bits set, [0 <= k <= 63]. *)

val iter_bits : int -> (int -> unit) -> unit
(** [iter_bits w f] applies [f] to the index of every set bit of [w],
    lowest first (ctz-based — cost is proportional to the number of set
    bits, not the word width). *)

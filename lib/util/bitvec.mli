(** Packed bit vectors.

    A fixed-length vector of booleans packed 63 per OCaml [int] word (the
    native unboxed width).  These back the bit-parallel pattern simulators:
    one vector per net holds one bit per pattern in the active block. *)

type t

val word_bits : int
(** Bits per word = 63 (OCaml native int width minus the tag bit). *)

val popcount_word : int -> int
(** Set bits in a raw word. *)

val ctz_word : int -> int
(** Index of the lowest set bit of a raw word; 63 on zero. *)

val create : int -> t
(** [create n] is an all-zero vector of length [n]. *)

val length : t -> int

val get : t -> int -> bool
val set : t -> int -> bool -> unit

val fill : t -> bool -> unit
(** Set every bit. *)

val num_words : t -> int
(** Number of backing words (at least 1, even for length 0). *)

val word : t -> int -> int
(** [word t i] is backing word [i]: bits
    [i * word_bits .. i * word_bits + word_bits - 1].  Bits at or past
    [length t] are always zero.  Read-only view for word-level kernels. *)

val words : t -> int array
(** The backing words themselves, shared with [t]: index [i] is
    [word t i].  A kernel that reads many words of one vector pays one
    call for all of them.  Read it only — a write through it could set
    the bits past [length t] that every operation here keeps zero. *)

val copy : t -> t

val equal : t -> t -> bool

val popcount : t -> int
(** Number of set bits. *)

val count_range : t -> int -> int -> int
(** [count_range t lo hi]: number of set bits [i] with
    [lo <= i < hi], counted a word at a time.  Raises [Invalid_argument]
    unless [0 <= lo <= hi <= length t]. *)

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] ors [src] into [dst].  Lengths must match. *)

val inter_into : dst:t -> t -> unit
(** [inter_into ~dst src] ands [src] into [dst].  Lengths must match. *)

val diff_into : dst:t -> t -> unit
(** [diff_into ~dst src] clears in [dst] every bit set in [src]. *)

val is_empty : t -> bool

val iter_set : t -> (int -> unit) -> unit
(** [iter_set t f] applies [f] to the index of every set bit, ascending. *)

val to_list : t -> int list
(** Indices of set bits, ascending. *)

val of_list : int -> int list -> t
(** [of_list n idxs] builds a length-[n] vector with [idxs] set. *)

val pp : Format.formatter -> t -> unit
(** Bits as a ['0'/'1'] string, index 0 leftmost. *)

(** Test pattern sets.

    A pattern assigns one bit to every primary input.  Sets are immutable
    and indexed; {!blocks} exposes the bit-parallel packing (63 patterns
    per word) consumed by the simulators. *)

type t

val of_list : npis:int -> bool array list -> t
(** Build from per-pattern PI vectors; every array must have length
    [npis]. *)

val random : Rng.t -> npis:int -> count:int -> t
(** [count] uniform random patterns. *)

val exhaustive : npis:int -> t
(** All [2^npis] patterns in counting order; [npis <= 20]. *)

val count : t -> int
val npis : t -> int

val pattern : t -> int -> bool array
(** Copy of one pattern's PI vector. *)

val append : t -> t -> t
(** Concatenate two sets over the same PI count. *)

(** {1 Bit-parallel blocks} *)

type block = {
  base : int;  (** Index of the first pattern in the block. *)
  width : int;  (** Number of live patterns, 1..63. *)
  pi_words : int array;  (** One word per PI position; bit [k] of word [i]
                             is PI [i] under pattern [base + k]. *)
}

val blocks : t -> block list
(** The set split into words, in pattern order. *)

val to_string : t -> int -> string
(** One pattern as a ['0'/'1'] string in PI order. *)

val to_text : t -> string
(** Whole set, one ['0'/'1'] line per pattern — the on-disk format of the
    CLI tools. *)

val of_text : string -> t
(** Parse {!to_text} output; the PI count is the first line's length.
    Raises [Invalid_argument] on ragged lines or foreign characters,
    naming the line (counted from 1, blank lines included). *)

val read_file : string -> (t, string) result
(** {!of_text} of a file's contents.  Never raises: an unreadable file
    is [Error] with the system message, a malformed one (ragged line,
    foreign character) is [Error "<path>: <reason>"], and the channel is
    closed either way. *)

(** {1 Origin}

    What a stored design image's test set answers for. *)

val origin : t -> string
(** The string {!with_origin} attached (the ATPG flow's parameters, for
    a generated set), or else ["patterns <hex>"], the MD5 of {!to_text}
    — the [--patterns] file's bytes when the file is in that canonical
    form.  An attached origin names the set only together with the
    netlist it was generated for. *)

val with_origin : string -> t -> t
(** The same set, carrying [origin]; {!append} drops it. *)

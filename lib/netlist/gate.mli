(** Gate kinds and their word-parallel evaluation. *)

(** The kind of the driver of a net.  [Input] nets are primary inputs and
    have no fanin; [Const] nets are tied cells.  All other kinds evaluate
    their fanin list. *)
type kind =
  | Input
  | Const of bool
  | Buf
  | Not
  | And
  | Nand
  | Or
  | Nor
  | Xor
  | Xnor

val arity_ok : kind -> int -> bool
(** [arity_ok kind n] says whether a gate of [kind] may have [n] fanins:
    0 for [Input]/[Const], 1 for [Buf]/[Not], >= 2 for the n-ary kinds. *)

val name : kind -> string
(** Upper-case `.bench` mnemonic, e.g. ["NAND"]. *)

val of_name : string -> kind option
(** Inverse of [name] (case-insensitive); recognises the `.bench`
    vocabulary including ["VDD"]/["GND"] for constants. *)

val eval : kind -> int array -> int array -> int -> int -> int
(** [eval kind values fanin lo hi]: bit-parallel two-valued evaluation
    of a gate of [kind] whose operands are [values.(fanin.(i))] for [i]
    in [lo, hi) — the gate's slice of a CSR fanin array.  No allocation
    and no arity checks (arity was validated when the netlist was
    built).  Complemented kinds return unmasked complements; mask on
    observation.  Raises [Invalid_argument] on [Input]. *)

val controlling : kind -> bool option
(** The controlling input value of the kind, if it has one: 0 for
    AND/NAND, 1 for OR/NOR, none for the rest. *)

val inversion : kind -> bool
(** Whether the kind inverts: true for NOT, NAND, NOR, XNOR. *)

(** Gate kinds and their evaluation in each logic domain. *)

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

val equal : kind -> kind -> bool

val arity_ok : kind -> int -> bool
(** [arity_ok kind n] says whether a gate of [kind] may have [n] fanins:
    0 for [Input]/[Const], 1 for [Buf]/[Not], >= 2 for the n-ary kinds. *)

val name : kind -> string
(** Upper-case `.bench` mnemonic, e.g. ["NAND"]. *)

val of_name : string -> kind option
(** Inverse of [name] (case-insensitive); recognises the `.bench`
    vocabulary including ["VDD"]/["GND"] for constants. *)

val eval_bool : kind -> bool list -> bool
(** Two-valued evaluation.  Raises [Invalid_argument] on [Input] or an
    arity violation. *)

val eval_v3 : kind -> Logic.v3 list -> Logic.v3
(** Three-valued evaluation with standard X-pessimism (controlling values
    win over X). *)

val eval_word : kind -> int array -> int
(** Bit-parallel two-valued evaluation over pattern words.  Complemented
    kinds return unmasked complements; mask on observation. *)

(** {1 Flat kernel interface}

    The simulation kernels dispatch on dense integer opcodes and read
    operands straight out of a net-values array through a CSR fanin
    slice, so gate evaluation allocates nothing. *)

val code : kind -> int
(** Dense opcode of a kind; one of the [code_*] constants below.  The
    two constant polarities get distinct codes, so kernels never inspect
    the variant payload. *)

val of_code : int -> kind option
(** The kind of an opcode; [None] for an int no kind has.
    [of_code (code k) = Some k]. *)

val code_input : int
val code_const0 : int
val code_const1 : int
val code_buf : int
val code_not : int
val code_and : int
val code_nand : int
val code_or : int
val code_nor : int
val code_xor : int
val code_xnor : int

val eval_flat : int -> int array -> int array -> int -> int -> int
(** [eval_flat code values fanin lo hi]: bit-parallel evaluation of a
    gate with opcode [code] whose operands are [values.(fanin.(i))] for
    [i] in [lo, hi) — the gate's slice of a CSR fanin array.  Performs
    no allocation and no arity checks (arity was validated when the
    netlist was built); complemented kinds return unmasked complements
    exactly like {!eval_word}.  Raises [Invalid_argument] on
    [code_input]. *)

val controlling : kind -> bool option
(** The controlling input value of the kind, if it has one: 0 for
    AND/NAND, 1 for OR/NOR, none for the rest. *)

val inversion : kind -> bool
(** Whether the kind inverts: true for NOT, NAND, NOR, XNOR. *)

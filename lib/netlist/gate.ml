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

let arity_ok kind n =
  match kind with
  | Input | Const _ -> n = 0
  | Buf | Not -> n = 1
  | And | Nand | Or | Nor | Xor | Xnor -> n >= 2

let name = function
  | Input -> "INPUT"
  | Const false -> "GND"
  | Const true -> "VDD"
  | Buf -> "BUF"
  | Not -> "NOT"
  | And -> "AND"
  | Nand -> "NAND"
  | Or -> "OR"
  | Nor -> "NOR"
  | Xor -> "XOR"
  | Xnor -> "XNOR"

let of_name s =
  match String.uppercase_ascii s with
  | "INPUT" -> Some Input
  | "GND" | "CONST0" -> Some (Const false)
  | "VDD" | "CONST1" -> Some (Const true)
  | "BUF" | "BUFF" -> Some Buf
  | "NOT" | "INV" -> Some Not
  | "AND" -> Some And
  | "NAND" -> Some Nand
  | "OR" -> Some Or
  | "NOR" -> Some Nor
  | "XOR" -> Some Xor
  | "XNOR" -> Some Xnor
  | _ -> None

(* Word-level evaluation over a CSR fanin slice: operand [i] is
   [values.(fanin.(i))] for [i] in [lo, hi).  No argument array is ever
   materialized; arity was validated at netlist construction.

   The kind is tested with [==] in a fixed order, n-ary kinds first: a
   constant constructor is an immediate, so each test is one compare,
   and a [Const] block equals none of them.  A [match] here compiles to
   a jump table, whose indirect branch the mix of kinds along a
   topological order defeats: Logic_sim over rnd2k ran ~1.9x as long
   with one.  The folds are written out in every arm for the same
   reason the slab loops are: a shared fold is a call per gate. *)
let eval kind values (fanin : int array) lo hi =
  if kind == And then begin
    let acc = ref values.(fanin.(lo)) in
    for i = lo + 1 to hi - 1 do
      acc := !acc land values.(fanin.(i))
    done;
    !acc
  end
  else if kind == Nand then begin
    let acc = ref values.(fanin.(lo)) in
    for i = lo + 1 to hi - 1 do
      acc := !acc land values.(fanin.(i))
    done;
    lnot !acc
  end
  else if kind == Or then begin
    let acc = ref values.(fanin.(lo)) in
    for i = lo + 1 to hi - 1 do
      acc := !acc lor values.(fanin.(i))
    done;
    !acc
  end
  else if kind == Nor then begin
    let acc = ref values.(fanin.(lo)) in
    for i = lo + 1 to hi - 1 do
      acc := !acc lor values.(fanin.(i))
    done;
    lnot !acc
  end
  else if kind == Xor then begin
    let acc = ref values.(fanin.(lo)) in
    for i = lo + 1 to hi - 1 do
      acc := !acc lxor values.(fanin.(i))
    done;
    !acc
  end
  else if kind == Xnor then begin
    let acc = ref values.(fanin.(lo)) in
    for i = lo + 1 to hi - 1 do
      acc := !acc lxor values.(fanin.(i))
    done;
    lnot !acc
  end
  else if kind == Buf then values.(fanin.(lo))
  else if kind == Not then lnot values.(fanin.(lo))
  else
    match kind with
    | Const b -> if b then Logic.ones else 0
    | Input | Buf | Not | And | Nand | Or | Nor | Xor | Xnor ->
      invalid_arg "Gate.eval: Input"

let controlling = function
  | And | Nand -> Some false
  | Or | Nor -> Some true
  | Input | Const _ | Buf | Not | Xor | Xnor -> None

let inversion = function
  | Not | Nand | Nor | Xnor -> true
  | Input | Const _ | Buf | And | Or | Xor -> false

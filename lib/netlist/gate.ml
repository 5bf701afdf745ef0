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

let equal (a : kind) (b : kind) = a = b

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

let bad_eval kind =
  invalid_arg (Printf.sprintf "Gate.eval: %s with wrong arity" (name kind))

let eval_bool kind args =
  match (kind, args) with
  | Const b, [] -> b
  | Buf, [ a ] -> a
  | Not, [ a ] -> not a
  | And, _ :: _ :: _ -> List.for_all Fun.id args
  | Nand, _ :: _ :: _ -> not (List.for_all Fun.id args)
  | Or, _ :: _ :: _ -> List.exists Fun.id args
  | Nor, _ :: _ :: _ -> not (List.exists Fun.id args)
  | Xor, _ :: _ :: _ -> List.fold_left (fun acc a -> acc <> a) false args
  | Xnor, _ :: _ :: _ -> not (List.fold_left (fun acc a -> acc <> a) false args)
  | (Input | Const _ | Buf | Not | And | Nand | Or | Nor | Xor | Xnor), _ ->
    bad_eval kind

let eval_v3 kind args =
  let open Logic in
  match (kind, args) with
  | Const b, [] -> v3_of_bool b
  | Buf, [ a ] -> a
  | Not, [ a ] -> v3_not a
  | And, a :: rest -> List.fold_left v3_and a rest
  | Nand, a :: rest -> v3_not (List.fold_left v3_and a rest)
  | Or, a :: rest -> List.fold_left v3_or a rest
  | Nor, a :: rest -> v3_not (List.fold_left v3_or a rest)
  | Xor, a :: rest -> List.fold_left v3_xor a rest
  | Xnor, a :: rest -> v3_not (List.fold_left v3_xor a rest)
  | (And | Nand | Or | Nor | Xor | Xnor), [] -> bad_eval kind
  | (Input | Const _ | Buf | Not), _ -> bad_eval kind

let eval_word kind args =
  let n = Array.length args in
  let fold f init =
    let acc = ref init in
    for i = 0 to n - 1 do
      acc := f !acc args.(i)
    done;
    !acc
  in
  match kind with
  | Const false -> 0
  | Const true -> Logic.ones
  | Buf when n = 1 -> args.(0)
  | Not when n = 1 -> lnot args.(0)
  | And when n >= 2 -> fold ( land ) Logic.ones
  | Nand when n >= 2 -> lnot (fold ( land ) Logic.ones)
  | Or when n >= 2 -> fold ( lor ) 0
  | Nor when n >= 2 -> lnot (fold ( lor ) 0)
  | Xor when n >= 2 -> fold ( lxor ) 0
  | Xnor when n >= 2 -> lnot (fold ( lxor ) 0)
  | Input | Buf | Not | And | Nand | Or | Nor | Xor | Xnor -> bad_eval kind

(* Dense opcodes for the flat-array kernels: every kind, including the
   two constant polarities, gets a small int so hot loops dispatch on an
   immediate instead of a boxed-payload variant. *)
let code_input = 0
let code_const0 = 1
let code_const1 = 2
let code_buf = 3
let code_not = 4
let code_and = 5
let code_nand = 6
let code_or = 7
let code_nor = 8
let code_xor = 9
let code_xnor = 10

let code = function
  | Input -> code_input
  | Const false -> code_const0
  | Const true -> code_const1
  | Buf -> code_buf
  | Not -> code_not
  | And -> code_and
  | Nand -> code_nand
  | Or -> code_or
  | Nor -> code_nor
  | Xor -> code_xor
  | Xnor -> code_xnor

let kinds_by_code =
  [| Input; Const false; Const true; Buf; Not; And; Nand; Or; Nor; Xor; Xnor |]

let of_code c =
  if c >= 0 && c < Array.length kinds_by_code then Some kinds_by_code.(c) else None

(* Word-level evaluation over a CSR fanin slice: operand [i] is
   [values.(fanin.(i))] for [i] in [lo, hi).  No argument array is ever
   materialized; arity was validated at netlist construction. *)
let eval_flat code values (fanin : int array) lo hi =
  if code = code_const0 then 0
  else if code = code_const1 then Logic.ones
  else if code = code_buf then values.(fanin.(lo))
  else if code = code_not then lnot values.(fanin.(lo))
  else if code = code_and then begin
    let acc = ref values.(fanin.(lo)) in
    for i = lo + 1 to hi - 1 do
      acc := !acc land values.(fanin.(i))
    done;
    !acc
  end
  else if code = code_nand then begin
    let acc = ref values.(fanin.(lo)) in
    for i = lo + 1 to hi - 1 do
      acc := !acc land values.(fanin.(i))
    done;
    lnot !acc
  end
  else if code = code_or then begin
    let acc = ref values.(fanin.(lo)) in
    for i = lo + 1 to hi - 1 do
      acc := !acc lor values.(fanin.(i))
    done;
    !acc
  end
  else if code = code_nor then begin
    let acc = ref values.(fanin.(lo)) in
    for i = lo + 1 to hi - 1 do
      acc := !acc lor values.(fanin.(i))
    done;
    lnot !acc
  end
  else if code = code_xor then begin
    let acc = ref values.(fanin.(lo)) in
    for i = lo + 1 to hi - 1 do
      acc := !acc lxor values.(fanin.(i))
    done;
    !acc
  end
  else if code = code_xnor then begin
    let acc = ref values.(fanin.(lo)) in
    for i = lo + 1 to hi - 1 do
      acc := !acc lxor values.(fanin.(i))
    done;
    lnot !acc
  end
  else invalid_arg "Gate.eval_flat: Input or unknown opcode"

let controlling = function
  | And | Nand -> Some false
  | Or | Nor -> Some true
  | Input | Const _ | Buf | Not | Xor | Xnor -> None

let inversion = function
  | Not | Nand | Nor | Xnor -> true
  | Input | Const _ | Buf | And | Or | Xor -> false

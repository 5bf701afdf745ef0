(* The scalar and three-valued gate evaluators, kept as test oracles.
   The library evaluates gates one way, [Gate.eval] over packed words;
   these evaluate a gate's argument list directly, so the properties in
   [Test_gate] can check that kernel bit by bit, and [Ternary_sim] (with
   [Podem_oracle] above it) can imply over 0/1/X.  [simulate_pattern]
   evaluates a whole netlist with them, one pattern at a time. *)

(* --- Three-valued logic ------------------------------------------------ *)

type v3 = V0 | V1 | X

let v3_of_bool b = if b then V1 else V0

let bool_of_v3 = function V0 -> Some false | V1 -> Some true | X -> None

let v3_not = function V0 -> V1 | V1 -> V0 | X -> X

let v3_and a b =
  match (a, b) with
  | V0, _ | _, V0 -> V0
  | V1, V1 -> V1
  | X, (V1 | X) | V1, X -> X

let v3_or a b =
  match (a, b) with
  | V1, _ | _, V1 -> V1
  | V0, V0 -> V0
  | X, (V0 | X) | V0, X -> X

let v3_xor a b =
  match (a, b) with
  | X, _ | _, X -> X
  | V0, V0 | V1, V1 -> V0
  | V0, V1 | V1, V0 -> V1

let v3_equal (a : v3) (b : v3) = a = b

let char_of_v3 = function V0 -> '0' | V1 -> '1' | X -> 'X'

let v3_of_char = function
  | '0' -> V0
  | '1' -> V1
  | 'x' | 'X' -> X
  | c -> invalid_arg (Printf.sprintf "Scalar_logic.v3_of_char: %c" c)

let pp_v3 ppf v = Format.pp_print_char ppf (char_of_v3 v)

(* --- Gate evaluation over argument lists ------------------------------- *)

let bad_eval kind =
  invalid_arg (Printf.sprintf "Scalar_logic.eval: %s with wrong arity" (Gate.name kind))

(* Two-valued evaluation; raises on [Input] or an arity violation. *)
let eval_bool kind args =
  match (kind, args) with
  | Gate.Const b, [] -> b
  | Gate.Buf, [ a ] -> a
  | Gate.Not, [ a ] -> not a
  | Gate.And, _ :: _ :: _ -> List.for_all Fun.id args
  | Gate.Nand, _ :: _ :: _ -> not (List.for_all Fun.id args)
  | Gate.Or, _ :: _ :: _ -> List.exists Fun.id args
  | Gate.Nor, _ :: _ :: _ -> not (List.exists Fun.id args)
  | Gate.Xor, _ :: _ :: _ -> List.fold_left (fun acc a -> acc <> a) false args
  | Gate.Xnor, _ :: _ :: _ -> not (List.fold_left (fun acc a -> acc <> a) false args)
  | ( ( Gate.Input | Gate.Const _ | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or
      | Gate.Nor | Gate.Xor | Gate.Xnor ),
      _ ) ->
    bad_eval kind

(* Three-valued evaluation with standard X-pessimism (controlling values
   win over X). *)
let eval_v3 kind args =
  match (kind, args) with
  | Gate.Const b, [] -> v3_of_bool b
  | Gate.Buf, [ a ] -> a
  | Gate.Not, [ a ] -> v3_not a
  | Gate.And, a :: rest -> List.fold_left v3_and a rest
  | Gate.Nand, a :: rest -> v3_not (List.fold_left v3_and a rest)
  | Gate.Or, a :: rest -> List.fold_left v3_or a rest
  | Gate.Nor, a :: rest -> v3_not (List.fold_left v3_or a rest)
  | Gate.Xor, a :: rest -> List.fold_left v3_xor a rest
  | Gate.Xnor, a :: rest -> v3_not (List.fold_left v3_xor a rest)
  | (Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor), [] ->
    bad_eval kind
  | (Gate.Input | Gate.Const _ | Gate.Buf | Gate.Not), _ -> bad_eval kind

(* Bit-parallel evaluation over an argument array; complemented kinds
   return unmasked complements, as [Gate.eval] does. *)
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
  | Gate.Const false when n = 0 -> 0
  | Gate.Const true when n = 0 -> Logic.ones
  | Gate.Buf when n = 1 -> args.(0)
  | Gate.Not when n = 1 -> lnot args.(0)
  | Gate.And when n >= 2 -> fold ( land ) Logic.ones
  | Gate.Nand when n >= 2 -> lnot (fold ( land ) Logic.ones)
  | Gate.Or when n >= 2 -> fold ( lor ) 0
  | Gate.Nor when n >= 2 -> lnot (fold ( lor ) 0)
  | Gate.Xor when n >= 2 -> fold ( lxor ) 0
  | Gate.Xnor when n >= 2 -> lnot (fold ( lxor ) 0)
  | Gate.Input | Gate.Const _ | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or
  | Gate.Nor | Gate.Xor | Gate.Xnor ->
    bad_eval kind

(* --- Whole-netlist evaluation ------------------------------------------ *)

(* Every net's value under one PI vector: [eval_bool] per gate, in
   topological order. *)
let simulate_pattern net inputs =
  if Array.length inputs <> Netlist.num_pis net then
    invalid_arg "Scalar_logic.simulate_pattern: PI vector width mismatch";
  let values = Array.make (Netlist.num_nets net) false in
  Array.iteri (fun i pi -> values.(pi) <- inputs.(i)) (Netlist.pis net);
  Array.iter
    (fun n ->
      if not (Netlist.is_pi net n) then
        values.(n) <-
          eval_bool (Netlist.kind net n)
            (Array.to_list (Array.map (fun s -> values.(s)) (Netlist.fanin net n))))
    (Netlist.topo_order net);
  values

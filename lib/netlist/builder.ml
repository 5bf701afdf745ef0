type t = {
  mutable names : string list; (* reversed *)
  mutable kinds : Gate.kind list; (* reversed *)
  mutable fanins : Netlist.net array list; (* reversed *)
  mutable outputs : Netlist.net list; (* reversed *)
  mutable count : int;
  used : (string, unit) Hashtbl.t;
  marked : (Netlist.net, unit) Hashtbl.t;
  mutable gensym : int;
}

let create () =
  {
    names = [];
    kinds = [];
    fanins = [];
    outputs = [];
    count = 0;
    used = Hashtbl.create 64;
    marked = Hashtbl.create 16;
    gensym = 0;
  }

let add b name kind fanins =
  if Hashtbl.mem b.used name then
    invalid_arg (Printf.sprintf "Builder: duplicate net name %S" name);
  if not (Gate.arity_ok kind (List.length fanins)) then
    invalid_arg
      (Printf.sprintf "Builder: %s gate %S with %d fanins" (Gate.name kind) name
         (List.length fanins));
  List.iter
    (fun src ->
      if src < 0 || src >= b.count then
        invalid_arg (Printf.sprintf "Builder: gate %S references undefined net" name))
    fanins;
  Hashtbl.add b.used name ();
  let id = b.count in
  b.names <- name :: b.names;
  b.kinds <- kind :: b.kinds;
  b.fanins <- Array.of_list fanins :: b.fanins;
  b.count <- id + 1;
  id

let input b name = add b name Gate.Input []
let gate b name kind fanins = add b name kind fanins

let fresh b prefix =
  if not (Hashtbl.mem b.used prefix) then prefix
  else begin
    let rec try_next () =
      b.gensym <- b.gensym + 1;
      let cand = Printf.sprintf "%s_%d" prefix b.gensym in
      if Hashtbl.mem b.used cand then try_next () else cand
    in
    try_next ()
  end

let mark_output b n =
  if n < 0 || n >= b.count then invalid_arg "Builder.mark_output: undefined net";
  if Hashtbl.mem b.marked n then invalid_arg "Builder.mark_output: already an output";
  Hashtbl.add b.marked n ();
  b.outputs <- n :: b.outputs

let finalize b =
  Netlist.make
    ~names:(Array.of_list (List.rev b.names))
    ~kinds:(Array.of_list (List.rev b.kinds))
    ~fanins:(Array.of_list (List.rev b.fanins))
    ~pos:(Array.of_list (List.rev b.outputs))

let auto b name prefix = match name with Some n -> n | None -> fresh b prefix

let not_ b ?name a = gate b (auto b name "n") Gate.Not [ a ]
let and_ b ?name args = gate b (auto b name "a") Gate.And args
let or_ b ?name args = gate b (auto b name "o") Gate.Or args
let nor_ b ?name args = gate b (auto b name "no") Gate.Nor args
let xor_ b ?name args = gate b (auto b name "x") Gate.Xor args
let xnor_ b ?name args = gate b (auto b name "xn") Gate.Xnor args
let buf_ b ?name a = gate b (auto b name "bf") Gate.Buf [ a ]

let mux_ b ?name ~sel a0 a1 =
  let nsel = not_ b sel in
  let p0 = and_ b [ a0; nsel ] in
  let p1 = and_ b [ a1; sel ] in
  gate b (auto b name "mx") Gate.Or [ p0; p1 ]

type net = int

type t = {
  names : string array;
  kinds : Gate.kind array;
  fanins : net array array;
  fanouts : net array array;
  pis : net array;
  pos : net array;
  po_index : int array; (* -1 when not a PO *)
  levels : int array;
  topo : net array;
  by_name : (string, net) Hashtbl.t;
  (* Flat CSR mirrors of the adjacency, plus a per-net opcode table: the
     simulation kernels index these directly instead of walking
     per-gate sub-arrays. *)
  fanin_csr : int array;
  fanin_off : int array; (* length num_nets + 1 *)
  fanout_csr : int array;
  fanout_off : int array; (* length num_nets + 1 *)
  codes : int array; (* Gate.code per net *)
}

let num_nets t = Array.length t.kinds

let num_gates t =
  Array.fold_left
    (fun acc kind -> match kind with Gate.Input -> acc | _ -> acc + 1)
    0 t.kinds

let pis t = t.pis
let pos t = t.pos
let num_pis t = Array.length t.pis
let num_pos t = Array.length t.pos

let kind t n = t.kinds.(n)
let fanin t n = t.fanins.(n)
let fanout t n = t.fanouts.(n)
let level t n = t.levels.(n)
let topo_order t = t.topo
let name t n = t.names.(n)

let fanin_csr t = t.fanin_csr
let fanin_offsets t = t.fanin_off
let fanout_csr t = t.fanout_csr
let fanout_offsets t = t.fanout_off
let gate_codes t = t.codes
let level_array t = t.levels

let is_pi t n = match t.kinds.(n) with Gate.Input -> true | _ -> false
let is_po t n = t.po_index.(n) >= 0
let po_index t n = if t.po_index.(n) >= 0 then Some t.po_index.(n) else None

let find t s = Hashtbl.find_opt t.by_name s

let iter_nets t f =
  for n = 0 to num_nets t - 1 do
    f n
  done

let depth t = Array.fold_left max 0 t.levels

(* Topological sort by Kahn's algorithm; detects cycles and reports one
   offending net by name in the failure message. *)
let toposort names kinds fanins fanouts =
  let n = Array.length kinds in
  let indeg = Array.map Array.length fanins in
  let queue = Queue.create () in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then Queue.add i queue
  done;
  let topo = Array.make n (-1) in
  let count = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    topo.(!count) <- v;
    incr count;
    Array.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue)
      fanouts.(v)
  done;
  if !count <> n then begin
    let offender = ref "" in
    for i = 0 to n - 1 do
      if indeg.(i) > 0 && !offender = "" then offender := names.(i)
    done;
    invalid_arg (Printf.sprintf "Netlist.make: combinational cycle through net %S" !offender)
  end;
  topo

let make ~names ~kinds ~fanins ~pos =
  let n = Array.length kinds in
  if Array.length names <> n || Array.length fanins <> n then
    invalid_arg "Netlist.make: array length mismatch";
  Array.iteri
    (fun i kind ->
      let arity = Array.length fanins.(i) in
      if not (Gate.arity_ok kind arity) then
        invalid_arg
          (Printf.sprintf "Netlist.make: net %S: %s with %d fanins" names.(i)
             (Gate.name kind) arity);
      Array.iter
        (fun src ->
          if src < 0 || src >= n then
            invalid_arg (Printf.sprintf "Netlist.make: net %S: dangling fanin" names.(i)))
        fanins.(i))
    kinds;
  Array.iter
    (fun p ->
      if p < 0 || p >= n then invalid_arg "Netlist.make: dangling primary output")
    pos;
  (* Fanout adjacency. *)
  let degree = Array.make n 0 in
  Array.iter (Array.iter (fun src -> degree.(src) <- degree.(src) + 1)) fanins;
  let fanouts = Array.map (fun d -> Array.make d (-1)) degree in
  let fill = Array.make n 0 in
  Array.iteri
    (fun dst srcs ->
      Array.iter
        (fun src ->
          fanouts.(src).(fill.(src)) <- dst;
          fill.(src) <- fill.(src) + 1)
        srcs)
    fanins;
  let topo = toposort names kinds fanins fanouts in
  let levels = Array.make n 0 in
  Array.iter
    (fun v ->
      let lvl =
        Array.fold_left (fun acc src -> max acc (levels.(src) + 1)) 0 fanins.(v)
      in
      levels.(v) <- if Array.length fanins.(v) = 0 then 0 else lvl)
    topo;
  let pis =
    Array.of_list
      (List.filter
         (fun i -> match kinds.(i) with Gate.Input -> true | _ -> false)
         (List.init n Fun.id))
  in
  let po_index = Array.make n (-1) in
  Array.iteri
    (fun i p ->
      if po_index.(p) >= 0 then
        invalid_arg (Printf.sprintf "Netlist.make: net %S listed twice as output" names.(p));
      po_index.(p) <- i)
    pos;
  let by_name = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i s ->
      if Hashtbl.mem by_name s then
        invalid_arg (Printf.sprintf "Netlist.make: duplicate net name %S" s);
      Hashtbl.add by_name s i)
    names;
  let csr_of adj =
    let off = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      off.(i + 1) <- off.(i) + Array.length adj.(i)
    done;
    let csr = Array.make off.(n) 0 in
    Array.iteri
      (fun i srcs -> Array.blit srcs 0 csr off.(i) (Array.length srcs))
      adj;
    (csr, off)
  in
  let fanin_csr, fanin_off = csr_of fanins in
  let fanout_csr, fanout_off = csr_of fanouts in
  let codes = Array.map Gate.code kinds in
  {
    names;
    kinds;
    fanins;
    fanouts;
    pis;
    pos;
    po_index;
    levels;
    topo;
    by_name;
    fanin_csr;
    fanin_off;
    fanout_csr;
    fanout_off;
    codes;
  }

let fanin_cone t root =
  let seen = Array.make (num_nets t) false in
  let rec visit n =
    if not seen.(n) then begin
      seen.(n) <- true;
      Array.iter visit t.fanins.(n)
    end
  in
  visit root;
  seen

let fanout_reach t root =
  let seen = Array.make (num_nets t) false in
  let rec visit n =
    if not seen.(n) then begin
      seen.(n) <- true;
      Array.iter visit t.fanouts.(n)
    end
  in
  visit root;
  seen

let output_cone t root =
  let reach = fanout_reach t root in
  Array.to_list (Array.of_seq (Seq.filter (fun p -> reach.(p)) (Array.to_seq t.pos)))

(* The fields a net's logic depends on, in a fixed order: names are
   left out, so a renamed netlist has the same structure. *)
let add_structure buf t =
  let add v = Buffer.add_int64_le buf (Int64.of_int v) in
  add (num_nets t);
  add (num_pis t);
  add (num_pos t);
  Array.iter add t.codes;
  Array.iter add t.fanin_off;
  Array.iter add t.fanin_csr;
  Array.iter add t.pos

let pp_stats ppf t =
  Format.fprintf ppf "%d PI, %d PO, %d gates, %d nets, depth %d" (num_pis t)
    (num_pos t) (num_gates t) (num_nets t) (depth t)

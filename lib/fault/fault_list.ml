type fault = { site : Netlist.net; stuck : bool }

let compare_fault a b =
  match compare a.site b.site with 0 -> compare a.stuck b.stuck | c -> c

let to_string net f = Printf.sprintf "%s sa%d" (Netlist.name net f.site) (Bool.to_int f.stuck)

type collapsed = { net : Netlist.t; parent : int array }

let index f = (2 * f.site) + Bool.to_int f.stuck
let fault_of_index i = { site = i / 2; stuck = i mod 2 = 1 }

let rec find parent i =
  if parent.(i) = i then i
  else begin
    let r = find parent parent.(i) in
    parent.(i) <- r;
    r
  end

let union parent i j =
  let ri = find parent i and rj = find parent j in
  if ri <> rj then
    (* Keep the smaller index as representative for determinism. *)
    if ri < rj then parent.(rj) <- ri else parent.(ri) <- rj

let collapse net =
  let parent = Array.init (2 * Netlist.num_nets net) Fun.id in
  let idx site stuck = (2 * site) + Bool.to_int stuck in
  (* A fault may be folded into the gate output only if the input net
     is read nowhere else AND is not itself observed: a fault on a
     primary-output net is directly visible there, its gate-output
     image is not. *)
  let fanin_csr = Netlist.fanin_csr net and fanin_off = Netlist.fanin_offsets net in
  let fanout_off = Netlist.fanout_offsets net in
  let single_fanout a =
    fanout_off.(a + 1) - fanout_off.(a) = 1 && not (Netlist.is_po net a)
  in
  Netlist.iter_nets net (fun z ->
      match Netlist.kind net z with
      | Gate.Buf ->
        let a = fanin_csr.(fanin_off.(z)) in
        if single_fanout a then begin
          union parent (idx a false) (idx z false);
          union parent (idx a true) (idx z true)
        end
      | Gate.Not ->
        let a = fanin_csr.(fanin_off.(z)) in
        if single_fanout a then begin
          union parent (idx a false) (idx z true);
          union parent (idx a true) (idx z false)
        end
      | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
        let kind = Netlist.kind net z in
        let c =
          match Gate.controlling kind with Some c -> c | None -> assert false
        in
        let out_v = if Gate.inversion kind then not c else c in
        for j = fanin_off.(z) to fanin_off.(z + 1) - 1 do
          let a = fanin_csr.(j) in
          if single_fanout a then union parent (idx a c) (idx z out_v)
        done
      | Gate.Input | Gate.Const _ | Gate.Xor | Gate.Xnor -> ());
  { net; parent }

(* [union] keeps the smaller root and [find] compresses to the root, so
   [parent.(i) <= i] always: one ascending pass resolves each index
   from its parent's already resolved entry, without [find]'s writes. *)
let representative_indices c =
  let p = c.parent in
  let r = Array.make (Array.length p) 0 in
  Array.iteri (fun i pi -> r.(i) <- (if pi = i then i else r.(pi))) p;
  r

let representatives c =
  let reps = ref [] in
  for i = Array.length c.parent - 1 downto 0 do
    if find c.parent i = i then reps := fault_of_index i :: !reps
  done;
  !reps

let class_of c f =
  let r = find c.parent (index f) in
  let members = ref [] in
  for i = Array.length c.parent - 1 downto 0 do
    if find c.parent i = r then members := fault_of_index i :: !members
  done;
  !members

let num_classes c =
  let count = ref 0 in
  Array.iteri (fun i _ -> if find c.parent i = i then incr count) c.parent;
  !count

type net = int

type t = {
  names : string;
      (* Every net's name, concatenated: net [n]'s is
         [names.[name_off.(n)] .. names.[name_off.(n + 1) - 1]], cut out
         only when asked for. *)
  name_off : int array; (* length num_nets + 1 *)
  kinds : Gate.kind array;
  pis : net array;
  pos : net array;
  po_index : int array; (* -1 when not a PO *)
  levels : int array;
  topo : net array;
  by_name : (string, net) Hashtbl.t option Atomic.t;
      (* Built on the first [find]: a netlist decoded from an image
         never needs it on the diagnosis path.  Two domains racing on
         the first lookup each build the same table; either one is
         kept. *)
  source : string option; (* see [source] *)
  (* The adjacency, as flat CSR arrays (the fanins of net [n] are
     [fanin_csr.(fanin_off.(n)) .. fanin_csr.(fanin_off.(n + 1) - 1)],
     likewise fanouts). *)
  fanin_csr : int array;
  fanin_off : int array; (* length num_nets + 1 *)
  fanout_csr : int array;
  fanout_off : int array; (* length num_nets + 1 *)
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
let slice csr off n = Array.sub csr off.(n) (off.(n + 1) - off.(n))
let fanin t n = slice t.fanin_csr t.fanin_off n
let fanout t n = slice t.fanout_csr t.fanout_off n
let level t n = t.levels.(n)
let topo_order t = t.topo
let name t n = String.sub t.names t.name_off.(n) (t.name_off.(n + 1) - t.name_off.(n))

let fanin_csr t = t.fanin_csr
let fanin_offsets t = t.fanin_off
let fanout_csr t = t.fanout_csr
let fanout_offsets t = t.fanout_off
let kinds t = t.kinds
let level_array t = t.levels

let is_pi t n = match t.kinds.(n) with Gate.Input -> true | _ -> false
let is_po t n = t.po_index.(n) >= 0
let po_index t n = if t.po_index.(n) >= 0 then Some t.po_index.(n) else None

let by_name t =
  match Atomic.get t.by_name with
  | Some h -> h
  | None ->
    let h = Hashtbl.create (2 * num_nets t) in
    for i = 0 to num_nets t - 1 do
      Hashtbl.replace h (name t i) i
    done;
    Atomic.set t.by_name (Some h);
    h

let find t s = Hashtbl.find_opt (by_name t) s

let iter_nets t f =
  for n = 0 to num_nets t - 1 do
    f n
  done

let depth t = Array.fold_left max 0 t.levels

(* Topological sort by Kahn's algorithm; detects cycles and reports one
   offending net by name in the failure message. *)
let toposort names ~fanin_off ~fanout:(fanout_csr, fanout_off) =
  let n = Array.length names in
  let indeg = Array.init n (fun i -> fanin_off.(i + 1) - fanin_off.(i)) in
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
    for j = fanout_off.(v) to fanout_off.(v + 1) - 1 do
      let w = fanout_csr.(j) in
      indeg.(w) <- indeg.(w) - 1;
      if indeg.(w) = 0 then Queue.add w queue
    done
  done;
  if !count <> n then begin
    let offender = ref "" in
    for i = 0 to n - 1 do
      if indeg.(i) > 0 && !offender = "" then offender := names.(i)
    done;
    invalid_arg (Printf.sprintf "Netlist.make: combinational cycle through net %S" !offender)
  end;
  topo

(* The fanout CSR [make] and [decode] both derive from the fanin CSR,
   the same way, so a decoded netlist equals the one that was encoded:
   a counting sort, each net's fanouts ascending. *)
let fanouts_of ~fanin_csr ~fanin_off =
  let n = Array.length fanin_off - 1 in
  let fanout_off = Array.make (n + 1) 0 in
  Array.iter (fun src -> fanout_off.(src + 1) <- fanout_off.(src + 1) + 1) fanin_csr;
  for i = 0 to n - 1 do
    fanout_off.(i + 1) <- fanout_off.(i + 1) + fanout_off.(i)
  done;
  let fanout_csr = Array.make (Array.length fanin_csr) 0 in
  let fill = Array.sub fanout_off 0 n in
  for dst = 0 to n - 1 do
    for j = fanin_off.(dst) to fanin_off.(dst + 1) - 1 do
      let src = fanin_csr.(j) in
      fanout_csr.(fill.(src)) <- dst;
      fill.(src) <- fill.(src) + 1
    done
  done;
  (fanout_csr, fanout_off)

let freeze ~names ~name_off ~kinds ~fanin_csr ~fanin_off
    ~fanout:(fanout_csr, fanout_off) ~pos ~po_index ~levels ~topo ~by_name ~source =
  let n = Array.length kinds in
  let is_input = function Gate.Input -> true | _ -> false in
  let npis = ref 0 in
  Array.iter (fun k -> if is_input k then incr npis) kinds;
  let pis = Array.make !npis 0 in
  let next = ref 0 in
  for i = 0 to n - 1 do
    if is_input kinds.(i) then begin
      pis.(!next) <- i;
      incr next
    end
  done;
  {
    names;
    name_off;
    kinds;
    pis;
    pos;
    po_index;
    levels;
    topo;
    by_name = Atomic.make by_name;
    source;
    fanin_csr;
    fanin_off;
    fanout_csr;
    fanout_off;
  }

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
  let fanin_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    fanin_off.(i + 1) <- fanin_off.(i) + Array.length fanins.(i)
  done;
  let fanin_csr = Array.concat (Array.to_list fanins) in
  let fanout = fanouts_of ~fanin_csr ~fanin_off in
  let topo = toposort names ~fanin_off ~fanout in
  let levels = Array.make n 0 in
  Array.iter
    (fun v ->
      for j = fanin_off.(v) to fanin_off.(v + 1) - 1 do
        levels.(v) <- max levels.(v) (levels.(fanin_csr.(j)) + 1)
      done)
    topo;
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
  let name_off = Array.make (n + 1) 0 in
  Array.iteri (fun i s -> name_off.(i + 1) <- name_off.(i) + String.length s) names;
  freeze ~names:(String.concat "" (Array.to_list names)) ~name_off ~kinds ~fanin_csr
    ~fanin_off ~fanout ~pos ~po_index ~levels ~topo ~by_name:(Some by_name) ~source:None

(* Every net reachable from [root] along one CSR, [root] included. *)
let reach csr off root =
  let seen = Array.make (Array.length off - 1) false in
  let rec visit n =
    if not seen.(n) then begin
      seen.(n) <- true;
      for j = off.(n) to off.(n + 1) - 1 do
        visit csr.(j)
      done
    end
  in
  visit root;
  seen

let fanin_cone t root = reach t.fanin_csr t.fanin_off root
let fanout_reach t root = reach t.fanout_csr t.fanout_off root

let output_cone t root =
  let reach = fanout_reach t root in
  Array.to_list (Array.of_seq (Seq.filter (fun p -> reach.(p)) (Array.to_seq t.pos)))

(* The opcode of each kind in the structure digest and the image
   section: a file format, not a kernel representation.  Renumbering
   changes every [source] key and every stored image. *)
let code_of_kind = function
  | Gate.Input -> 0
  | Gate.Const false -> 1
  | Gate.Const true -> 2
  | Gate.Buf -> 3
  | Gate.Not -> 4
  | Gate.And -> 5
  | Gate.Nand -> 6
  | Gate.Or -> 7
  | Gate.Nor -> 8
  | Gate.Xor -> 9
  | Gate.Xnor -> 10

let kinds_by_code =
  Gate.[| Input; Const false; Const true; Buf; Not; And; Nand; Or; Nor; Xor; Xnor |]

(* The fields a net's logic depends on, in a fixed order: names are
   left out, so a renamed netlist has the same structure. *)
let add_structure buf t =
  let add v = Buffer.add_int64_le buf (Int64.of_int v) in
  add (num_nets t);
  add (num_pis t);
  add (num_pos t);
  Array.iter (fun k -> add (code_of_kind k)) t.kinds;
  Array.iter add t.fanin_off;
  Array.iter add t.fanin_csr;
  Array.iter add t.pos

(* --- Source and image section ----------------------------------------- *)

let with_source source t = { t with source = Some source }

let source t =
  match t.source with
  | Some s -> s
  | None ->
    let buf = Buffer.create 4096 in
    add_structure buf t;
    "structure " ^ Digest.to_hex (Digest.string (Buffer.contents buf))

(* Section layout, every integer a little-endian int64:

     nnets | npos | nfanin | names_len
     | codes (nnets) | fanin_off (nnets + 1) | fanin_csr (nfanin)
     | pos (npos) | levels (nnets) | topo (nnets) | name_off (nnets + 1)
     | names (names_len bytes, concatenated)

   The derived views (the fanout CSR, PIs, the PO index) are rebuilt
   from these; levels and the topological order are stored because
   checking them costs one pass, where deriving them again costs a
   sort. *)
let encode buf t =
  let add v = Buffer.add_int64_le buf (Int64.of_int v) in
  add (num_nets t);
  add (num_pos t);
  add (Array.length t.fanin_csr);
  add (String.length t.names);
  Array.iter (fun k -> add (code_of_kind k)) t.kinds;
  Array.iter add t.fanin_off;
  Array.iter add t.fanin_csr;
  Array.iter add t.pos;
  Array.iter add t.levels;
  Array.iter add t.topo;
  Array.iter add t.name_off;
  Buffer.add_string buf t.names

exception Malformed

(* Whether any two of the names [names.[off.(i)] .. names.[off.(i + 1)
   - 1]] are equal, without cutting them out: indices go into an
   open-addressed table by a hash of their byte range, and only ranges
   whose hashes collide are compared. *)
let has_duplicate names off =
  let n = Array.length off - 1 in
  let size = ref 16 in
  while !size < 2 * n do
    size := 2 * !size
  done;
  let mask = !size - 1 in
  let hash i =
    (* FNV-1a over the range, folded down to the table's bits. *)
    let h = ref 0x811c9dc5 in
    for j = off.(i) to off.(i + 1) - 1 do
      h := (!h lxor Char.code (String.unsafe_get names j)) * 0x100000001b3
    done;
    (!h lxor (!h lsr 32)) land mask
  in
  let equal i j =
    let len = off.(i + 1) - off.(i) in
    len = off.(j + 1) - off.(j)
    &&
    let k = ref 0 in
    while
      !k < len
      && String.unsafe_get names (off.(i) + !k) = String.unsafe_get names (off.(j) + !k)
    do
      incr k
    done;
    !k = len
  in
  let slots = Array.make !size (-1) in
  let dup = ref false in
  for i = 0 to n - 1 do
    let h = ref (hash i) in
    while (not !dup) && slots.(!h) >= 0 do
      if equal slots.(!h) i then dup := true else h := (!h + 1) land mask
    done;
    slots.(!h) <- i
  done;
  !dup

external swap64 : int64 -> int64 = "%bswap_int64"

(* Every check [make] makes, on untrusted ints: the section must be
   exactly as long as its counts say, every index in range, every
   arity legal, no PO listed twice and no name used twice; the stored
   order must list each net once and after all its fanins (which rules
   out a cycle), and each stored level must be the one [make] would
   compute.  Any failure, an out-of-range read included, is [None].
   The names are copied out as one string, the blob they are stored
   as. *)
let decode ?source (bytes : Bigstring.t) ~off ~len =
  let word_at p =
    let x = Bigstring.get64_ne bytes p in
    Int64.to_int (if Sys.big_endian then swap64 x else x)
  in
  let word i = word_at (off + (8 * i)) in
  let check ok = if not ok then raise Malformed in
  try
    check (off >= 0 && len >= 32 && off <= Bigarray.Array1.dim bytes - len);
    let n = word 0 and npos = word 1 and nfanin = word 2 and names_len = word 3 in
    let words = len / 8 in
    check (n >= 0 && n <= words && npos >= 0 && npos <= words);
    check (nfanin >= 0 && nfanin <= words && names_len >= 0 && names_len <= len);
    check ((8 * (4 + (5 * n) + 2 + nfanin + npos)) + names_len = len);
    let cursor = ref (off + 32) in
    let take k =
      let a = Array.make k 0 in
      for i = 0 to k - 1 do
        a.(i) <- word_at (!cursor + (8 * i))
      done;
      cursor := !cursor + (8 * k);
      a
    in
    let kinds =
      Array.map
        (fun c ->
          check (c >= 0 && c < Array.length kinds_by_code);
          kinds_by_code.(c))
        (take n)
    in
    let fanin_off = take (n + 1) in
    let fanin_csr = take nfanin in
    let pos = take npos in
    let levels = take n in
    let topo = take n in
    let name_off = take (n + 1) in
    check (fanin_off.(0) = 0 && fanin_off.(n) = nfanin);
    for i = 0 to n - 1 do
      let arity = fanin_off.(i + 1) - fanin_off.(i) in
      check (arity >= 0 && Gate.arity_ok kinds.(i) arity)
    done;
    Array.iter (fun src -> check (src >= 0 && src < n)) fanin_csr;
    let po_index = Array.make n (-1) in
    Array.iteri
      (fun i p ->
        check (p >= 0 && p < n && po_index.(p) < 0);
        po_index.(p) <- i)
      pos;
    let seen = Array.make n false in
    Array.iter
      (fun v ->
        check (v >= 0 && v < n && not seen.(v));
        let lvl = ref 0 in
        for j = fanin_off.(v) to fanin_off.(v + 1) - 1 do
          let src = fanin_csr.(j) in
          check seen.(src);
          lvl := max !lvl (levels.(src) + 1)
        done;
        check (levels.(v) = !lvl);
        seen.(v) <- true)
      topo;
    check (name_off.(0) = 0 && name_off.(n) = names_len);
    for i = 0 to n - 1 do
      check (name_off.(i) <= name_off.(i + 1))
    done;
    let names = Bigstring.sub_string bytes (off + len - names_len) names_len in
    check (not (has_duplicate names name_off));
    Some
      (freeze ~names ~name_off ~kinds ~fanin_csr ~fanin_off
         ~fanout:(fanouts_of ~fanin_csr ~fanin_off) ~pos ~po_index ~levels ~topo ~by_name:None
         ~source)
  with Malformed | Invalid_argument _ -> None

let pp_stats ppf t =
  Format.fprintf ppf "%d PI, %d PO, %d gates, %d nets, depth %d" (num_pis t)
    (num_pos t) (num_gates t) (num_nets t) (depth t)

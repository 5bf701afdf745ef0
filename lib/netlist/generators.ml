let c17_text =
  "# ISCAS-85 c17\n\
   INPUT(G1)\n\
   INPUT(G2)\n\
   INPUT(G3)\n\
   INPUT(G6)\n\
   INPUT(G7)\n\
   OUTPUT(G22)\n\
   OUTPUT(G23)\n\
   G10 = NAND(G1, G3)\n\
   G11 = NAND(G3, G6)\n\
   G16 = NAND(G2, G11)\n\
   G19 = NAND(G11, G7)\n\
   G22 = NAND(G10, G16)\n\
   G23 = NAND(G16, G19)\n"

let c17 () = Bench_io.parse_string c17_text

let full_adder b ~tag a x cin =
  let open Builder in
  let axb = xor_ b ~name:(fresh b (tag ^ "_axb")) [ a; x ] in
  let sum = xor_ b ~name:(fresh b (tag ^ "_s")) [ axb; cin ] in
  let c1 = and_ b ~name:(fresh b (tag ^ "_c1")) [ a; x ] in
  let c2 = and_ b ~name:(fresh b (tag ^ "_c2")) [ axb; cin ] in
  let cout = or_ b ~name:(fresh b (tag ^ "_co")) [ c1; c2 ] in
  (sum, cout)

let ripple_adder w =
  assert (w >= 1);
  let b = Builder.create () in
  let a = Array.init w (fun i -> Builder.input b (Printf.sprintf "a%d" i)) in
  let x = Array.init w (fun i -> Builder.input b (Printf.sprintf "b%d" i)) in
  let cin = Builder.input b "cin" in
  let carry = ref cin in
  for i = 0 to w - 1 do
    let sum, cout = full_adder b ~tag:(Printf.sprintf "fa%d" i) a.(i) x.(i) !carry in
    Builder.mark_output b sum;
    carry := cout
  done;
  Builder.mark_output b !carry;
  Builder.finalize b

let multiplier w =
  assert (w >= 2);
  let b = Builder.create () in
  let a = Array.init w (fun i -> Builder.input b (Printf.sprintf "a%d" i)) in
  let x = Array.init w (fun i -> Builder.input b (Printf.sprintf "b%d" i)) in
  (* Partial products. *)
  let pp =
    Array.init w (fun i ->
        Array.init w (fun j ->
            Builder.and_ b ~name:(Printf.sprintf "pp%d_%d" i j) [ a.(j); x.(i) ]))
  in
  (* Row-by-row ripple accumulation of the shifted partial products. *)
  let acc = ref (Array.to_list pp.(0)) in
  let product = ref [] in
  for i = 1 to w - 1 do
    let row = pp.(i) in
    (match !acc with
    | low :: rest ->
      product := low :: !product;
      let carry = ref None in
      let next = ref [] in
      for j = 0 to w - 1 do
        let prev = if j < List.length rest then Some (List.nth rest j) else None in
        let tag = Printf.sprintf "m%d_%d" i j in
        let sum, cout =
          match (prev, !carry) with
          | Some p, Some c ->
            full_adder b ~tag row.(j) p c
          | Some p, None ->
            let s = Builder.xor_ b ~name:(Builder.fresh b (tag ^ "_s")) [ row.(j); p ] in
            let c = Builder.and_ b ~name:(Builder.fresh b (tag ^ "_c")) [ row.(j); p ] in
            (s, c)
          | None, Some c ->
            let s = Builder.xor_ b ~name:(Builder.fresh b (tag ^ "_s")) [ row.(j); c ] in
            let co = Builder.and_ b ~name:(Builder.fresh b (tag ^ "_c")) [ row.(j); c ] in
            (s, co)
          | None, None -> (Builder.buf_ b ~name:(Builder.fresh b (tag ^ "_s")) row.(j), -1)
        in
        next := sum :: !next;
        carry := if cout >= 0 then Some cout else None
      done;
      let next = List.rev !next in
      let next =
        match !carry with Some c -> next @ [ c ] | None -> next
      in
      acc := next
    | [] -> assert false)
  done;
  List.iter (Builder.mark_output b) (List.rev !product);
  List.iter (Builder.mark_output b) !acc;
  Builder.finalize b

let alu w =
  assert (w >= 1);
  let b = Builder.create () in
  let a = Array.init w (fun i -> Builder.input b (Printf.sprintf "a%d" i)) in
  let x = Array.init w (fun i -> Builder.input b (Printf.sprintf "b%d" i)) in
  let s0 = Builder.input b "s0" in
  let s1 = Builder.input b "s1" in
  let carry = ref None in
  let results = Array.make w (-1) in
  for i = 0 to w - 1 do
    let land_ = Builder.and_ b ~name:(Printf.sprintf "and%d" i) [ a.(i); x.(i) ] in
    let lor_ = Builder.or_ b ~name:(Printf.sprintf "or%d" i) [ a.(i); x.(i) ] in
    let lxor_ = Builder.xor_ b ~name:(Printf.sprintf "xor%d" i) [ a.(i); x.(i) ] in
    let sum =
      match !carry with
      | None ->
        (* Bit 0 adds without carry-in. *)
        let c = Builder.and_ b ~name:(Printf.sprintf "c%d" i) [ a.(i); x.(i) ] in
        carry := Some c;
        lxor_
      | Some cin ->
        let s, cout = full_adder b ~tag:(Printf.sprintf "fa%d" i) a.(i) x.(i) cin in
        carry := Some cout;
        s
    in
    let lo = Builder.mux_ b ~name:(Printf.sprintf "lo%d" i) ~sel:s0 land_ lor_ in
    let hi = Builder.mux_ b ~name:(Printf.sprintf "hi%d" i) ~sel:s0 lxor_ sum in
    results.(i) <- Builder.mux_ b ~name:(Printf.sprintf "r%d" i) ~sel:s1 lo hi
  done;
  Array.iter (Builder.mark_output b) results;
  (* Zero flag over the result bits. *)
  let zero = Builder.nor_ b ~name:"zero" (Array.to_list results) in
  Builder.mark_output b zero;
  (match !carry with Some c -> Builder.mark_output b c | None -> ());
  Builder.finalize b

let parity w =
  assert (w >= 2);
  let b = Builder.create () in
  let leaves = Array.init w (fun i -> Builder.input b (Printf.sprintf "i%d" i)) in
  let rec reduce nets =
    match nets with
    | [ last ] -> last
    | _ ->
      let rec pair = function
        | x :: y :: rest -> Builder.xor_ b [ x; y ] :: pair rest
        | [ x ] -> [ x ]
        | [] -> []
      in
      reduce (pair nets)
  in
  let root = reduce (Array.to_list leaves) in
  let out = Builder.buf_ b ~name:"par" root in
  Builder.mark_output b out;
  Builder.finalize b

let decoder n =
  assert (n >= 1 && n <= 6);
  let b = Builder.create () in
  let sel = Array.init n (fun i -> Builder.input b (Printf.sprintf "s%d" i)) in
  let en = Builder.input b "en" in
  let nsel = Array.map (fun s -> Builder.not_ b s) sel in
  for code = 0 to (1 lsl n) - 1 do
    let terms =
      List.init n (fun i -> if code land (1 lsl i) <> 0 then sel.(i) else nsel.(i))
    in
    let o = Builder.and_ b ~name:(Printf.sprintf "d%d" code) (en :: terms) in
    Builder.mark_output b o
  done;
  Builder.finalize b

let comparator w =
  assert (w >= 1);
  let b = Builder.create () in
  let a = Array.init w (fun i -> Builder.input b (Printf.sprintf "a%d" i)) in
  let x = Array.init w (fun i -> Builder.input b (Printf.sprintf "b%d" i)) in
  let eqs =
    Array.init w (fun i -> Builder.xnor_ b ~name:(Printf.sprintf "eq%d" i) [ a.(i); x.(i) ])
  in
  let eq = Builder.and_ b ~name:"eq" (Array.to_list eqs) in
  (* a < b at bit i: eq on all higher bits, a_i = 0, b_i = 1. *)
  let lt_terms =
    List.init w (fun i ->
        let na = Builder.not_ b a.(i) in
        let here = Builder.and_ b [ na; x.(i) ] in
        let higher = Array.to_list (Array.sub eqs (i + 1) (w - i - 1)) in
        match higher with
        | [] -> here
        | _ -> Builder.and_ b (here :: higher))
  in
  let lt =
    match lt_terms with
    | [ one ] -> Builder.buf_ b ~name:"lt" one
    | terms -> Builder.or_ b ~name:"lt" terms
  in
  let gt = Builder.nor_ b ~name:"gt" [ eq; lt ] in
  Builder.mark_output b eq;
  Builder.mark_output b lt;
  Builder.mark_output b gt;
  Builder.finalize b

let mux_tree k =
  assert (k >= 1 && k <= 6);
  let b = Builder.create () in
  let data = Array.init (1 lsl k) (fun i -> Builder.input b (Printf.sprintf "d%d" i)) in
  let sel = Array.init k (fun i -> Builder.input b (Printf.sprintf "s%d" i)) in
  let rec level nets bit =
    match nets with
    | [ last ] -> last
    | _ ->
      let rec pair = function
        | a0 :: a1 :: rest -> Builder.mux_ b ~sel:sel.(bit) a0 a1 :: pair rest
        | [ one ] -> [ one ]
        | [] -> []
      in
      level (pair nets) (bit + 1)
  in
  let root = level (Array.to_list data) 0 in
  let out = Builder.buf_ b ~name:"y" root in
  Builder.mark_output b out;
  Builder.finalize b

let majority w =
  assert (w >= 3 && w mod 2 = 1);
  let b = Builder.create () in
  let inputs = Array.init w (fun i -> Builder.input b (Printf.sprintf "i%d" i)) in
  (* Population count via chained full adders: sum bits as a list of
     one-hot weighted nets, then compare against w/2. *)
  let rec popcount nets =
    (* nets: list of (weight, net); combine three equal-weight nets with a
       full adder, two with a half adder. *)
    let module M = Map.Make (Int) in
    let by_weight =
      List.fold_left
        (fun m (wt, n) -> M.update wt (function None -> Some [ n ] | Some l -> Some (n :: l)) m)
        M.empty nets
    in
    let changed = ref false in
    let out = ref [] in
    M.iter
      (fun wt ns ->
        let rec chew = function
          | n1 :: n2 :: n3 :: rest ->
            changed := true;
            let s, c = full_adder b ~tag:(Printf.sprintf "pc%d" wt) n1 n2 n3 in
            out := (wt, s) :: (wt * 2, c) :: !out;
            chew rest
          | [ n1; n2 ] ->
            changed := true;
            let s = Builder.xor_ b [ n1; n2 ] in
            let c = Builder.and_ b [ n1; n2 ] in
            out := (wt, s) :: (wt * 2, c) :: !out
          | [ n1 ] -> out := (wt, n1) :: !out
          | [] -> ()
        in
        chew ns)
      by_weight;
    if !changed then popcount !out else !out
  in
  let bits = popcount (List.map (fun n -> (1, n)) (Array.to_list inputs)) in
  (* Majority iff popcount > w/2, i.e. popcount >= (w+1)/2.  Compare the
     binary count against the constant threshold. *)
  let threshold = (w + 1) / 2 in
  let sorted = List.sort (fun (w1, _) (w2, _) -> compare w1 w2) bits in
  let count_bits = List.map snd sorted in
  let widths = List.mapi (fun i n -> (1 lsl i, n)) count_bits in
  (* count >= threshold with a subtract-free comparator: OR over positions
     where count has a 1 above threshold's prefix.  Simpler: build
     greater-or-equal chain bit by bit from MSB. *)
  let nbits = List.length widths in
  let thr_bit i = threshold land (1 lsl i) <> 0 in
  (* count > threshold: OR over bit positions (MSB down) of
     "equal on all higher bits AND count_i = 1 AND thr_i = 0". *)
  let ge = ref None in
  let eq_so_far = ref None in
  (* equality over the already-visited higher bits *)
  for i = nbits - 1 downto 0 do
    let bit = List.nth count_bits i in
    let t = thr_bit i in
    let eq_here = if t then bit else Builder.not_ b bit in
    if not t then begin
      let contribution =
        match !eq_so_far with
        | None -> bit
        | Some eqs -> Builder.and_ b [ eqs; bit ]
      in
      ge :=
        (match !ge with
        | None -> Some contribution
        | Some acc -> Some (Builder.or_ b [ acc; contribution ]))
    end;
    eq_so_far :=
      (match !eq_so_far with
      | None -> Some eq_here
      | Some eqs -> Some (Builder.and_ b [ eqs; eq_here ]))
  done;
  let ge_net =
    match (!ge, !eq_so_far) with
    | Some g, Some eqs -> Builder.or_ b ~name:"maj" [ g; eqs ]
    | Some g, None -> Builder.buf_ b ~name:"maj" g
    | None, Some eqs -> Builder.buf_ b ~name:"maj" eqs
    | None, None -> assert false
  in
  Builder.mark_output b ge_net;
  Builder.finalize b

let carry_lookahead_adder w =
  assert (w >= 1);
  let b = Builder.create () in
  let a = Array.init w (fun i -> Builder.input b (Printf.sprintf "a%d" i)) in
  let x = Array.init w (fun i -> Builder.input b (Printf.sprintf "b%d" i)) in
  let cin = Builder.input b "cin" in
  (* Bit generate/propagate. *)
  let gen = Array.init w (fun i -> Builder.and_ b ~name:(Printf.sprintf "g%d" i) [ a.(i); x.(i) ]) in
  let prop = Array.init w (fun i -> Builder.xor_ b ~name:(Printf.sprintf "p%d" i) [ a.(i); x.(i) ]) in
  (* Carries in 4-bit lookahead groups: c_{i+1} = g_i OR (p_i AND c_i),
     flattened inside each group so the carry logic is two-level. *)
  let carries = Array.make (w + 1) cin in
  let group_base = ref 0 in
  while !group_base < w do
    let base = !group_base in
    let size = min 4 (w - base) in
    for i = 0 to size - 1 do
      let bit = base + i in
      (* c_{bit+1} = OR over j<=i of (g_j AND p_{j+1..i}) OR (c_base AND p_{base..i}) *)
      let terms = ref [] in
      for j = base to bit do
        let ands = ref [ gen.(j) ] in
        for k = j + 1 to bit do
          ands := prop.(k) :: !ands
        done;
        let term =
          match !ands with
          | [ one ] -> one
          | l -> Builder.and_ b l
        in
        terms := term :: !terms
      done;
      let chain = ref [ carries.(base) ] in
      for k = base to bit do
        chain := prop.(k) :: !chain
      done;
      terms := Builder.and_ b !chain :: !terms;
      carries.(bit + 1) <-
        (match !terms with
        | [ one ] -> Builder.buf_ b ~name:(Printf.sprintf "c%d" (bit + 1)) one
        | l -> Builder.or_ b ~name:(Printf.sprintf "c%d" (bit + 1)) l)
    done;
    group_base := base + size
  done;
  for i = 0 to w - 1 do
    let s = Builder.xor_ b ~name:(Printf.sprintf "s%d" i) [ prop.(i); carries.(i) ] in
    Builder.mark_output b s
  done;
  Builder.mark_output b carries.(w);
  Builder.finalize b

let barrel_shifter k =
  assert (k >= 1 && k <= 5);
  let width = 1 lsl k in
  let b = Builder.create () in
  let data = Array.init width (fun i -> Builder.input b (Printf.sprintf "d%d" i)) in
  let sel = Array.init k (fun i -> Builder.input b (Printf.sprintf "s%d" i)) in
  let zero = Builder.gate b "zero" (Gate.Const false) [] in
  let stage current bit =
    let shift = 1 lsl bit in
    Array.init width (fun i ->
        let shifted = if i >= shift then current.(i - shift) else zero in
        Builder.mux_ b ~sel:sel.(bit) current.(i) shifted)
  in
  let result = ref data in
  for bit = 0 to k - 1 do
    result := stage !result bit
  done;
  Array.iteri
    (fun i n -> Builder.mark_output b (Builder.buf_ b ~name:(Printf.sprintf "y%d" i) n))
    !result;
  Builder.finalize b

let priority_encoder n =
  assert (n >= 1 && n <= 5);
  let width = 1 lsl n in
  let b = Builder.create () in
  let req = Array.init width (fun i -> Builder.input b (Printf.sprintf "r%d" i)) in
  (* highest set input wins: code bit j = OR over inputs i (with bit j
     set in i) that are the highest set = r_i AND none above. *)
  let none_above = Array.make width (-1) in
  (* none_above.(i) = no request among i+1..width-1 *)
  for i = width - 1 downto 0 do
    let above = Array.to_list (Array.sub req (i + 1) (width - i - 1)) in
    none_above.(i) <-
      (match above with
      | [] -> Builder.gate b (Builder.fresh b "one") (Gate.Const true) []
      | [ one ] -> Builder.not_ b one
      | l -> Builder.nor_ b l)
  done;
  let winner =
    Array.init width (fun i ->
        Builder.and_ b ~name:(Printf.sprintf "w%d" i) [ req.(i); none_above.(i) ])
  in
  for j = 0 to n - 1 do
    let contributors =
      List.filter_map
        (fun i -> if i land (1 lsl j) <> 0 then Some winner.(i) else None)
        (List.init width Fun.id)
    in
    let bit =
      match contributors with
      | [] -> Builder.gate b (Builder.fresh b "zero") (Gate.Const false) []
      | [ one ] -> Builder.buf_ b ~name:(Printf.sprintf "q%d" j) one
      | l -> Builder.or_ b ~name:(Printf.sprintf "q%d" j) l
    in
    Builder.mark_output b bit
  done;
  let valid = Builder.or_ b ~name:"valid" (Array.to_list req) in
  Builder.mark_output b valid;
  Builder.finalize b

let gray_decoder w =
  assert (w >= 2);
  let b = Builder.create () in
  let gray = Array.init w (fun i -> Builder.input b (Printf.sprintf "g%d" i)) in
  (* binary_(w-1) = gray_(w-1); binary_i = binary_{i+1} XOR gray_i. *)
  let binary = Array.make w (-1) in
  binary.(w - 1) <- Builder.buf_ b ~name:(Printf.sprintf "b%d" (w - 1)) gray.(w - 1);
  for i = w - 2 downto 0 do
    binary.(i) <- Builder.xor_ b ~name:(Printf.sprintf "b%d" i) [ binary.(i + 1); gray.(i) ]
  done;
  Array.iter (Builder.mark_output b) binary;
  Builder.finalize b

let crc_step w =
  assert (w >= 4);
  let b = Builder.create () in
  let state = Array.init w (fun i -> Builder.input b (Printf.sprintf "s%d" i)) in
  let data = Builder.input b "d" in
  (* feedback = msb XOR d; taps at positions 0, 1, w/2 (dense enough to
     exercise reconvergence). *)
  let feedback = Builder.xor_ b ~name:"fb" [ state.(w - 1); data ] in
  let taps = [ 0; 1; w / 2 ] in
  for i = 0 to w - 1 do
    let shifted = if i = 0 then None else Some state.(i - 1) in
    let next =
      match (shifted, List.mem i taps) with
      | None, _ -> Builder.buf_ b ~name:(Printf.sprintf "n%d" i) feedback
      | Some s, false -> Builder.buf_ b ~name:(Printf.sprintf "n%d" i) s
      | Some s, true -> Builder.xor_ b ~name:(Printf.sprintf "n%d" i) [ s; feedback ]
    in
    Builder.mark_output b next
  done;
  Builder.finalize b

(* The random DAG both random generators draw, in one RNG stream:
   [pis] inputs, then [gates] gates of random kinds, each reading
   distinct earlier nets.  Builder numbers nets in creation order: PI
   [i] is net [i] and gate [g] is net [pis + g].  Returns the builder,
   outputs still unmarked, and [read], which marks the nets some gate
   reads. *)
let random_dag rng ~gates ~pis =
  let b = Builder.create () in
  let kinds = [| Gate.And; Gate.Or; Gate.Nand; Gate.Nor; Gate.Xor; Gate.Not; Gate.Buf |] in
  let read = Array.make (pis + gates) false in
  for i = 0 to pis - 1 do
    ignore (Builder.input b (Printf.sprintf "pi%d" i) : Netlist.net)
  done;
  for g = 0 to gates - 1 do
    let avail = pis + g in
    let kind = Rng.pick rng kinds in
    let arity =
      match kind with
      | Gate.Not | Gate.Buf -> 1
      | _ -> 2 + Rng.int rng 3
    in
    (* Locality bias: half the fanins come from the most recent quarter of
       nets, creating depth; the rest are uniform, creating reconvergence. *)
    let draw () =
      if Rng.bool rng && avail > 8 then
        avail - 1 - Rng.int rng (max 1 (avail / 4))
      else Rng.int rng avail
    in
    let rec distinct k acc =
      if k = 0 then acc
      else
        let c = draw () in
        if List.mem c acc then distinct k acc else distinct (k - 1) (c :: acc)
    in
    let arity = min arity avail in
    let kind = if arity = 1 then (if Rng.bool rng then Gate.Not else Gate.Buf) else kind in
    let fanins = distinct arity [] in
    List.iter (fun i -> read.(i) <- true) fanins;
    ignore (Builder.gate b (Printf.sprintf "g%d" g) kind fanins : Netlist.net)
  done;
  (b, read)

let random_logic ~gates ~pis ~pos ~seed =
  assert (gates >= 1 && pis >= 2 && pos >= 1);
  let b, read = random_dag (Rng.create seed) ~gates ~pis in
  (* Outputs: requested count from the last gates, then, in net order,
     every gate no other gate reads, so there is no dead logic. *)
  let marked = Array.make (pis + gates) false in
  let mark n =
    if not marked.(n) then begin
      marked.(n) <- true;
      Builder.mark_output b n
    end
  in
  for i = 0 to pos - 1 do
    mark (pis + gates - 1 - (i mod gates))
  done;
  for n = pis to pis + gates - 1 do
    if not read.(n) then mark n
  done;
  Builder.finalize b

(* Like [random_logic], but dead logic is folded into balanced XOR
   compaction trees merged into the [pos] declared outputs instead of
   being promoted to extra primary outputs.  At 1-2k gates the
   promotion adds a handful of POs and is harmless; at 10k+ gates it
   inflates the PO count ~100x past anything physical (rnd50k would get
   ~9000 POs where a real 50k-gate netlist has one or two hundred),
   which in turn inflates every npos-proportional structure downstream —
   reachability masks, observation tables, emission scans.  The XOR
   sinks keep every net observable (XOR propagates any single fanin
   change) at an ISCAS-like PO count, so this is what the big tiers
   use.  [random_logic]'s outputs are untouched: rnd1k/rnd2k feed the
   committed paper tables. *)
let random_logic_sink ~gates ~pis ~pos ~seed =
  assert (gates >= 1 && pis >= 2 && pos >= 1);
  let bl, read = random_dag (Rng.create seed) ~gates ~pis in
  (* Output seeds, chosen as [random_logic] does; the sinks then fold
     every remaining unread net (gate or PI — an unread PI would
     otherwise be untestable) into one of the [pos] outputs. *)
  let seeds = Array.init pos (fun i -> pis + gates - 1 - (i mod gates)) in
  Array.iter (fun i -> read.(i) <- true) seeds;
  let buckets = Array.make pos [] in
  let k = ref 0 in
  for i = 0 to pis + gates - 1 do
    if not read.(i) then begin
      buckets.(!k mod pos) <- i :: buckets.(!k mod pos);
      incr k
    end
  done;
  let rec reduce = function
    | [] -> assert false
    | [ n ] -> n
    | nets ->
      let rec pair acc = function
        | a :: c :: rest -> pair (Builder.xor_ bl [ a; c ] :: acc) rest
        | [ a ] -> pair (a :: acc) []
        | [] -> List.rev acc
      in
      reduce (pair [] nets)
  in
  for i = 0 to pos - 1 do
    Builder.mark_output bl (reduce (seeds.(i) :: buckets.(i)))
  done;
  Builder.finalize bl

(* Bump when any generator's output changes: a stored design image is
   keyed by [source_key], so a stale image would otherwise load. *)
let version = 1

let generated_key name = Printf.sprintf "generator %s v%d" name version

(* A named generator's netlist, built on first use, carrying its
   source key. *)
let generated name build =
  (name, lazy (Netlist.with_source (generated_key name) (build ())))

(* Lazy, as the {!tiers} are: a lookup builds only the circuit it
   names (rnd2k alone is half the suite's build time). *)
let suite_lazy =
  [
    generated "c17" c17;
    generated "par16" (fun () -> parity 16);
    generated "dec4" (fun () -> decoder 4);
    generated "gray8" (fun () -> gray_decoder 8);
    generated "add8" (fun () -> ripple_adder 8);
    generated "penc4" (fun () -> priority_encoder 4);
    generated "crc16" (fun () -> crc_step 16);
    generated "cmp16" (fun () -> comparator 16);
    generated "cla16" (fun () -> carry_lookahead_adder 16);
    generated "mux5" (fun () -> mux_tree 5);
    generated "maj9" (fun () -> majority 9);
    generated "bshift4" (fun () -> barrel_shifter 4);
    generated "alu8" (fun () -> alu 8);
    generated "add32" (fun () -> ripple_adder 32);
    generated "mult8" (fun () -> multiplier 8);
    generated "rnd1k" (fun () -> random_logic ~gates:1000 ~pis:32 ~pos:16 ~seed:11);
    generated "rnd2k" (fun () -> random_logic ~gates:2000 ~pis:48 ~pos:24 ~seed:12);
  ]

let suite_names = List.map fst suite_lazy
let suite () = List.map (fun (name, net) -> (name, Lazy.force net)) suite_lazy
let find_suite name = Option.map Lazy.force (List.assoc_opt name suite_lazy)

(* Large netlist tiers (10k/50k gates) for the PPSFP kernel benchmarks.
   Deliberately *outside* {!suite}: every paper table iterates the
   suite, and the big tiers would multiply table runtimes (deterministic
   ATPG alone is minutes at 10k+ gates — tier benchmarks drive them with
   seeded random patterns instead).  The list also picks up any vendored
   ISCAS-85-style [.bench] circuit under [bench/circuits] (override
   with MDD_CIRCUITS_DIR), parsed through {!Bench_io} so the on-disk
   netlist path is exercised at bench time.  Entries are lazy — forcing
   rnd50k allocates a quarter-million-entry CSR, and a run asking for
   one tier must not pay for the others. *)
let circuits_dir () =
  match Sys.getenv_opt "MDD_CIRCUITS_DIR" with
  | Some d when d <> "" -> d
  | _ -> Filename.concat "bench" "circuits"

let generated_tiers =
  [
    generated "rnd10k" (fun () ->
        random_logic_sink ~gates:9_000 ~pis:96 ~pos:48 ~seed:13);
    generated "rnd50k" (fun () ->
        random_logic_sink ~gates:46_000 ~pis:192 ~pos:96 ~seed:14);
  ]

(* The vendored [.bench] files of the circuits directory, by tier name
   in name order: each file's bytes, read when first forced, and the
   netlist parsed from them.  [source_key] digests the bytes and
   [find_tier] parses the same bytes, so a lookup that does both reads
   the file once. *)
type vendored = { text : string Lazy.t; net : Netlist.t Lazy.t }

let scan_vendored dir =
  let vendored path =
    let text = lazy (In_channel.with_open_bin path In_channel.input_all) in
    let parse text = Netlist.with_source (Bench_io.source_key text) (Bench_io.parse_string text) in
    { text; net = Lazy.map parse text }
  in
  match Sys.readdir dir with
  | files ->
    Array.sort compare files;
    Array.to_list files
    |> List.filter_map (fun f ->
           if Filename.check_suffix f ".bench" then
             Some (Filename.chop_suffix f ".bench", vendored (Filename.concat dir f))
           else None)
  | exception Sys_error _ -> []

(* Scanned once per circuits directory: a process that points
   MDD_CIRCUITS_DIR elsewhere sees the new directory's files. *)
let vendored_cache = ref None

let vendored () =
  let dir = circuits_dir () in
  match !vendored_cache with
  | Some (d, l) when d = dir -> l
  | Some _ | None ->
    let l = scan_vendored dir in
    vendored_cache := Some (dir, l);
    l

let tiers () =
  generated_tiers @ List.map (fun (name, v) -> (name, v.net)) (vendored ())

let find_tier name = Option.map Lazy.force (List.assoc_opt name (tiers ()))

let source_key name =
  if List.mem_assoc name suite_lazy || List.mem_assoc name generated_tiers then
    Some (generated_key name)
  else
    match List.assoc_opt name (vendored ()) with
    | Some v -> (
      match Lazy.force v.text with
      | text -> Some (Bench_io.source_key text)
      | exception Sys_error _ -> None)
    | None -> None

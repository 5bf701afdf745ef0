type result = Test of bool array | Untestable | Aborted

(* Dual-rail ternary state, both machines in one word pair: bit 0 is the
   good machine, bit 1 the faulty one.  [ones.(n)] has a machine's bit
   set when the net is 1 there, [zeros.(n)] when it is 0; neither means
   X.  One gate evaluation over the CSR fanin slice computes both
   machines, and the faulty bit of the fault site is forced afterwards. *)
let good = 1
let faulty = 2
let both = 3

type t = {
  fanin : int array;
  fanin_off : int array;
  fanout : int array;
  fanout_off : int array;
  kinds : Gate.kind array; (* the netlist's own: read, never written *)
  levels : int array;
  topo : int array;
  topo_pos : int array;  (** Index of each net in [topo]. *)
  pis : int array;
  pi_pos : int array;  (** PI position of a net, -1 for gates. *)
  is_po : bool array;
  ones : int array;
  zeros : int array;
  assign : int array;  (** Per PI position: 0, 1, or -1 for unassigned. *)
  (* Event queue: one bucket per level, each sized to its level's net
     count; a net sits in at most one bucket at a time ([queued]). *)
  bucket : int array;
  bucket_off : int array;
  bucket_len : int array;
  queued : bool array;
  mutable lo_level : int;
  mutable hi_level : int;
  (* The current fault: site, stuck value, and its fanout cone in
     topological order ([cone_pos] are the cone's primary outputs). *)
  mutable site : int;
  mutable stuck : bool;
  cone : int array;
  mutable cone_len : int;
  cone_pos : int array;
  mutable cone_npos : int;
  (* The fault's region: its cone and every net that drives it, the
     only nets the search reads.  [region.(n) = region_id] marks them. *)
  region : int array;
  mutable region_id : int;
  (* Stamped visited marks (cone construction, X-path search) and the
     BFS queue they and the region construction use. *)
  seen : int array;
  mutable epoch : int;
  queue : int array;
  (* Decision stack, at most one entry per PI; [stack_mark] is the
     trail length before the decision was applied. *)
  stack_pos : int array;
  stack_flipped : bool array;
  stack_mark : int array;
  mutable depth : int;
  (* Undo trail: every rail change made above depth 0, packed as
     [net lsl 4 lor old ones lsl 2 lor old zeros].  Grows by doubling;
     emptied at the start of each run. *)
  mutable trail : int array;
  mutable trail_len : int;
  (* Gate evaluations of the current run. *)
  mutable n_implications : int;
}

type work = { calls : int; backtracks : int; aborted : int; implications : int }

let create net =
  let n = Netlist.num_nets net in
  let levels = Netlist.level_array net in
  let topo = Netlist.topo_order net in
  let topo_pos = Array.make n 0 in
  Array.iteri (fun i v -> topo_pos.(v) <- i) topo;
  let pis = Netlist.pis net in
  let npis = Array.length pis in
  let pi_pos = Array.make n (-1) in
  Array.iteri (fun i pi -> pi_pos.(pi) <- i) pis;
  let is_po = Array.make n false in
  Array.iter (fun po -> is_po.(po) <- true) (Netlist.pos net);
  let depth = Netlist.depth net in
  let bucket_off = Array.make (depth + 2) 0 in
  Array.iter (fun l -> bucket_off.(l + 1) <- bucket_off.(l + 1) + 1) levels;
  for l = 1 to depth + 1 do
    bucket_off.(l) <- bucket_off.(l) + bucket_off.(l - 1)
  done;
  {
    fanin = Netlist.fanin_csr net;
    fanin_off = Netlist.fanin_offsets net;
    fanout = Netlist.fanout_csr net;
    fanout_off = Netlist.fanout_offsets net;
    kinds = Netlist.kinds net;
    levels;
    topo;
    topo_pos;
    pis;
    pi_pos;
    is_po;
    ones = Array.make n 0;
    zeros = Array.make n 0;
    assign = Array.make npis (-1);
    bucket = Array.make n 0;
    bucket_off;
    bucket_len = Array.make (depth + 1) 0;
    queued = Array.make n false;
    lo_level = max_int;
    hi_level = -1;
    site = 0;
    stuck = false;
    cone = Array.make n 0;
    cone_len = 0;
    cone_pos = Array.make n 0;
    cone_npos = 0;
    region = Array.make n 0;
    region_id = 0;
    seen = Array.make n 0;
    epoch = 0;
    queue = Array.make n 0;
    stack_pos = Array.make npis 0;
    stack_flipped = Array.make npis false;
    stack_mark = Array.make npis 0;
    depth = 0;
    trail = Array.make (max 64 n) 0;
    trail_len = 0;
    n_implications = 0;
  }

(* --- Implication ------------------------------------------------------ *)

let is_d e n =
  let o = e.ones.(n) and z = e.zeros.(n) in
  (o = good && z = faulty) || (o = faulty && z = good)

(* Undecided (X) in either machine. *)
let is_potential e n = e.ones.(n) lor e.zeros.(n) <> both
let good_x e n = (e.ones.(n) lor e.zeros.(n)) land good = 0

let good_value e n =
  if e.ones.(n) land good <> 0 then 1 else if e.zeros.(n) land good <> 0 then 0 else -1

let grow e =
  let bigger = Array.make (2 * e.trail_len) 0 in
  Array.blit e.trail 0 bigger 0 e.trail_len;
  e.trail <- bigger

(* Record net [n]'s rails [o], [z] before a change, so that [undo] can
   restore them. *)
let push e n o z =
  if e.trail_len = Array.length e.trail then grow e;
  Array.unsafe_set e.trail e.trail_len ((n lsl 4) lor (o lsl 2) lor z);
  e.trail_len <- e.trail_len + 1

(* Restore every rail changed since trail length [mark], newest first,
   so a net changed more than once ends at its oldest value. *)
let undo e mark =
  for i = e.trail_len - 1 downto mark do
    let x = e.trail.(i) in
    let n = x lsr 4 in
    e.ones.(n) <- (x lsr 2) land 3;
    e.zeros.(n) <- x land 3
  done;
  e.trail_len <- mark

(* Write a net's rails, trailing the old ones above depth 0 (the sweep
   that seeds a run is never undone); true when they changed.  [n] is a
   net of the netlist — a [topo] or bucket entry, a PI — so the rails
   are indexed unchecked. *)
let write e n o z =
  let o0 = Array.unsafe_get e.ones n and z0 = Array.unsafe_get e.zeros n in
  if o = o0 && z = z0 then false
  else begin
    if e.depth > 0 then push e n o0 z0;
    Array.unsafe_set e.ones n o;
    Array.unsafe_set e.zeros n z;
    true
  end

(* Store a net's new rails, forcing the site's faulty bit. *)
let store e n o z =
  if n <> e.site then write e n o z
  else if e.stuck then write e n (o lor faulty) (z land good)
  else write e n (o land good) (z lor faulty)

(* The gate evaluators read [fanin.(lo .. hi - 1)], a gate's slice of
   the fanin CSR, and the rails of the nets it names: every index is in
   range by the CSR's construction, so the reads are unchecked. *)

(* AND over rails [a] and [b]: [a] set where every input's is, [b] set
   where any input's is; stored as (ones, zeros), or swapped when
   [swap].  AND (and BUF, its one-input case) reads (ones, zeros) and
   OR, its De Morgan dual, (zeros, ones); an inverting gate swaps once
   more. *)
let eval_and e g lo hi a b swap =
  let fanin = e.fanin in
  let all = ref both and any = ref 0 in
  for i = lo to hi - 1 do
    let s = Array.unsafe_get fanin i in
    all := !all land Array.unsafe_get a s;
    any := !any lor Array.unsafe_get b s
  done;
  if swap then store e g !any !all else store e g !all !any

(* Known only where every input is; then the parity of the 1s, complemented
   by [flip] ([both] for XNOR). *)
let eval_xor e g lo hi flip =
  let fanin = e.fanin and ones = e.ones and zeros = e.zeros in
  let known = ref both and parity = ref flip in
  for i = lo to hi - 1 do
    let s = Array.unsafe_get fanin i in
    let o = Array.unsafe_get ones s in
    known := !known land (o lor Array.unsafe_get zeros s);
    parity := !parity lxor o
  done;
  store e g (!known land !parity) (!known land (!parity lxor both))

(* Both machines of gate [g] from its fanins' rails, then [store]. *)
let eval e g =
  e.n_implications <- e.n_implications + 1;
  let lo = Array.unsafe_get e.fanin_off g and hi = Array.unsafe_get e.fanin_off (g + 1) in
  match Array.unsafe_get e.kinds g with
  | Gate.And | Gate.Buf -> eval_and e g lo hi e.ones e.zeros false
  | Gate.Nand | Gate.Not -> eval_and e g lo hi e.ones e.zeros true
  | Gate.Or -> eval_and e g lo hi e.zeros e.ones true
  | Gate.Nor -> eval_and e g lo hi e.zeros e.ones false
  | Gate.Xor -> eval_xor e g lo hi 0
  | Gate.Xnor -> eval_xor e g lo hi both
  | Gate.Const false -> store e g 0 both
  | Gate.Const true -> store e g both 0
  | Gate.Input -> invalid_arg "Podem.eval: Input"

(* Queue the fanouts of [n] that lie in the fault's region.  Each level's
   bucket has room for every net of that level and a net is queued at
   most once, so the CSR and bucket slots are indexed unchecked. *)
let schedule_fanouts e n =
  for i = Array.unsafe_get e.fanout_off n to Array.unsafe_get e.fanout_off (n + 1) - 1 do
    let g = Array.unsafe_get e.fanout i in
    if Array.unsafe_get e.region g = e.region_id && not (Array.unsafe_get e.queued g)
    then begin
      Array.unsafe_set e.queued g true;
      let l = Array.unsafe_get e.levels g in
      let len = Array.unsafe_get e.bucket_len l in
      Array.unsafe_set e.bucket (Array.unsafe_get e.bucket_off l + len) g;
      Array.unsafe_set e.bucket_len l (len + 1);
      if l < e.lo_level then e.lo_level <- l;
      if l > e.hi_level then e.hi_level <- l
    end
  done

(* Drain the event queue level by level.  Fanouts sit on strictly higher
   levels, so a bucket never grows while it is drained, and every gate
   is evaluated once, after all its changed fanins. *)
let propagate e =
  let l = ref e.lo_level in
  while !l <= e.hi_level do
    let base = e.bucket_off.(!l) in
    for i = 0 to e.bucket_len.(!l) - 1 do
      let g = Array.unsafe_get e.bucket (base + i) in
      Array.unsafe_set e.queued g false;
      if eval e g then schedule_fanouts e g
    done;
    e.bucket_len.(!l) <- 0;
    incr l
  done;
  e.lo_level <- max_int;
  e.hi_level <- -1

(* Set PI position [pos] to [v] (0 or 1) and queue its fanouts when its
   rails change; [propagate] settles the circuit. *)
let set_pi e pos v =
  e.assign.(pos) <- v;
  let pi = e.pis.(pos) in
  if store e pi (if v = 1 then both else 0) (if v = 0 then both else 0) then
    schedule_fanouts e pi

(* Every PI X, the site forced, one sweep of the region in topological
   order. *)
let reset e =
  Array.fill e.assign 0 (Array.length e.assign) (-1);
  Array.iter
    (fun n ->
      if e.region.(n) = e.region_id then
        if e.pi_pos.(n) >= 0 then ignore (store e n 0 0) else ignore (eval e n))
    e.topo

(* --- The fault's fanout cone and region -------------------------------- *)

(* Outside the site's fanout cone both machines agree, so every D net,
   every D-frontier gate and every D-or-X path to an output lies inside
   it; scanning the cone in topological order finds the same first match
   as scanning the whole netlist.

   The search reads the rails of the cone, of the cone gates' fanins
   (D-frontier, objective, backtrace) and, walking a backtrace down, of
   their fanins in turn: the region, the cone closed under fanin.  A
   region gate's fanins are in the region, so implying only region gates
   gives every region net the rails a whole-netlist implication would;
   the nets outside keep stale rails no step reads. *)
let build_cone e =
  e.epoch <- e.epoch + 1;
  let ep = e.epoch in
  e.seen.(e.site) <- ep;
  e.queue.(0) <- e.site;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = e.queue.(!head) in
    incr head;
    for i = e.fanout_off.(v) to e.fanout_off.(v + 1) - 1 do
      let w = e.fanout.(i) in
      if e.seen.(w) <> ep then begin
        e.seen.(w) <- ep;
        e.queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  let size = !tail in
  e.region_id <- e.region_id + 1;
  let id = e.region_id in
  for i = 0 to size - 1 do
    e.region.(e.queue.(i)) <- id
  done;
  head := 0;
  while !head < !tail do
    let v = e.queue.(!head) in
    incr head;
    for i = e.fanin_off.(v) to e.fanin_off.(v + 1) - 1 do
      let w = e.fanin.(i) in
      if e.region.(w) <> id then begin
        e.region.(w) <- id;
        e.queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  e.cone_len <- 0;
  e.cone_npos <- 0;
  let i = ref e.topo_pos.(e.site) in
  while e.cone_len < size do
    let v = e.topo.(!i) in
    incr i;
    if e.seen.(v) = ep then begin
      e.cone.(e.cone_len) <- v;
      e.cone_len <- e.cone_len + 1;
      if e.is_po.(v) then begin
        e.cone_pos.(e.cone_npos) <- v;
        e.cone_npos <- e.cone_npos + 1
      end
    end
  done

let detected e =
  let found = ref false and i = ref 0 in
  while (not !found) && !i < e.cone_npos do
    found := is_d e e.cone_pos.(!i);
    incr i
  done;
  !found

(* Can the fault effect still reach an output?  BFS from every D net
   through nets that are D or undecided (X in either machine). *)
let x_path_exists e =
  e.epoch <- e.epoch + 1;
  let ep = e.epoch in
  let tail = ref 0 in
  for i = 0 to e.cone_len - 1 do
    let v = e.cone.(i) in
    if is_d e v then begin
      e.seen.(v) <- ep;
      e.queue.(!tail) <- v;
      incr tail
    end
  done;
  let head = ref 0 and found = ref false in
  while (not !found) && !head < !tail do
    let v = e.queue.(!head) in
    incr head;
    if e.is_po.(v) then found := true
    else
      for i = e.fanout_off.(v) to e.fanout_off.(v + 1) - 1 do
        let w = e.fanout.(i) in
        if e.seen.(w) <> ep && (is_d e w || is_potential e w) then begin
          e.seen.(w) <- ep;
          e.queue.(!tail) <- w;
          incr tail
        end
      done
  done;
  !found

(* --- Search ----------------------------------------------------------- *)

(* First fanin of [g] whose good value is X, or -1. *)
let first_good_x e g =
  let r = ref (-1) and i = ref e.fanin_off.(g) in
  while !r < 0 && !i < e.fanin_off.(g + 1) do
    if good_x e e.fanin.(!i) then r := e.fanin.(!i);
    incr i
  done;
  !r

(* The gate objective to pursue next: excite the fault if not excited,
   otherwise extend the D-frontier — the first undecided gate in
   topological order with a D fanin, asking for the non-controlling
   value on its first X input.  Returns the objective net (-1 for none)
   and leaves its value in [obj_value]. *)
let objective e obj_value =
  if good_x e e.site then begin
    obj_value := not e.stuck;
    e.site
  end
  else begin
    let result = ref (-1) and i = ref 0 in
    while !result < 0 && !i < e.cone_len do
      let g = e.cone.(!i) in
      incr i;
      if is_potential e g && e.pi_pos.(g) < 0 then begin
        let has_d = ref false and j = ref e.fanin_off.(g) in
        while (not !has_d) && !j < e.fanin_off.(g + 1) do
          has_d := is_d e e.fanin.(!j);
          incr j
        done;
        if !has_d then begin
          let src = first_good_x e g in
          if src >= 0 then begin
            (* Non-controlling value: 1 for AND/NAND, 0 for OR/NOR and
               (no controlling value) everything else. *)
            obj_value :=
              (match e.kinds.(g) with
              | Gate.And | Gate.Nand -> true
              | Gate.Input | Gate.Const _ | Gate.Buf | Gate.Not | Gate.Or | Gate.Nor
              | Gate.Xor | Gate.Xnor ->
                false);
            result := src
          end
        end
      end
    done;
    !result
  end

(* One backtrace step through gate [n]: its first good-X fanin (-1 for
   none), with [value] set to [v] there — flipped by the parity of the
   other fanins' known good 1s when [parity]. *)
let step e n value v ~parity =
  let src = first_good_x e n in
  if src >= 0 then begin
    let flip = ref false in
    if parity then
      for i = e.fanin_off.(n) to e.fanin_off.(n + 1) - 1 do
        let other = e.fanin.(i) in
        if other <> src && good_value e other = 1 then flip := not !flip
      done;
    value := v <> !flip
  end;
  src

(* Walk an objective down to an unassigned primary input; returns the
   PI net (-1 when the walk dead-ends) with its value in [value]. *)
let backtrace e net0 value =
  let net = ref net0 and result = ref (-2) and guard = ref (Array.length e.ones + 1) in
  while !result = -2 do
    let n = !net in
    if n < 0 || !guard = 0 then result := -1
    else if e.pi_pos.(n) >= 0 then result := n
    else begin
      decr guard;
      match e.kinds.(n) with
      | Gate.Input -> result := n
      | Gate.Const _ -> result := -1
      | Gate.Buf -> net := e.fanin.(e.fanin_off.(n))
      | Gate.Not ->
        net := e.fanin.(e.fanin_off.(n));
        value := not !value
      | Gate.And | Gate.Or -> net := step e n value !value ~parity:false
      | Gate.Nand | Gate.Nor -> net := step e n value (not !value) ~parity:false
      | Gate.Xor -> net := step e n value !value ~parity:true
      | Gate.Xnor -> net := step e n value (not !value) ~parity:true
    end
  done;
  !result

let conflict e =
  match good_value e e.site with
  | -1 -> false
  | v -> v = Bool.to_int e.stuck || not (x_path_exists e)

(* Pursue one objective: assign its backtraced PI and imply.  False when
   no objective or no PI remains. *)
let decide e =
  let value = ref false in
  let obj = objective e value in
  obj >= 0
  &&
  let pi = backtrace e obj value in
  pi >= 0
  &&
  let pos = e.pi_pos.(pi) in
  e.stack_pos.(e.depth) <- pos;
  e.stack_flipped.(e.depth) <- false;
  e.stack_mark.(e.depth) <- e.trail_len;
  e.depth <- e.depth + 1;
  set_pi e pos (Bool.to_int !value);
  propagate e;
  true

(* Flip the most recent unflipped decision, dropping the flipped ones
   above it; false when the decision space is exhausted.  The rails are
   restored to the trail mark the decision was applied at — the state
   before it, with its PI X again — and only its PI is implied at the
   other value.  The region's rails after [propagate] are a function of
   the PI assignment and the fault alone, so this is the state that
   un-assigning and re-implying every popped PI would reach. *)
let flip_last e =
  let d = ref (e.depth - 1) in
  while !d >= 0 && e.stack_flipped.(!d) do
    e.assign.(e.stack_pos.(!d)) <- -1;
    decr d
  done;
  let d = !d in
  d >= 0
  &&
  let pos = e.stack_pos.(d) in
  undo e e.stack_mark.(d);
  e.depth <- d + 1;
  e.stack_flipped.(d) <- true;
  set_pi e pos (1 - e.assign.(pos));
  propagate e;
  true

let run ?(backtrack_limit = 512) ?(fill_seed = 7) e fault =
  e.site <- fault.Fault_list.site;
  e.stuck <- fault.Fault_list.stuck;
  e.depth <- 0;
  e.trail_len <- 0;
  e.n_implications <- 0;
  build_cone e;
  (* [reset] sweeps the region [build_cone] just marked. *)
  reset e;
  let backtracks = ref 0 in
  let outcome = ref None in
  while Option.is_none !outcome do
    if detected e then begin
      let rng = Rng.create (fill_seed + (e.site * 2) + Bool.to_int e.stuck) in
      outcome :=
        Some (Test (Array.map (fun v -> if v < 0 then Rng.bool rng else v = 1) e.assign))
    end
    else if conflict e || not (decide e) then begin
      incr backtracks;
      if !backtracks > backtrack_limit then outcome := Some Aborted
      else if not (flip_last e) then outcome := Some Untestable
    end
  done;
  let result = Option.get !outcome in
  ( result,
    {
      calls = 1;
      backtracks = !backtracks;
      aborted = (match result with Aborted -> 1 | Test _ | Untestable -> 0);
      implications = e.n_implications;
    } )

let no_work = { calls = 0; backtracks = 0; aborted = 0; implications = 0 }

let add_work a b =
  {
    calls = a.calls + b.calls;
    backtracks = a.backtracks + b.backtracks;
    aborted = a.aborted + b.aborted;
    implications = a.implications + b.implications;
  }

let c_calls = Obs.counter "tpg.podem_calls"
let c_backtracks = Obs.counter "tpg.backtracks"
let c_aborted = Obs.counter "tpg.aborted"
let c_implications = Obs.counter "tpg.implications"

let publish w =
  if Obs.enabled () then begin
    Obs.add c_calls w.calls;
    Obs.add c_backtracks w.backtracks;
    Obs.add c_aborted w.aborted;
    Obs.add c_implications w.implications
  end

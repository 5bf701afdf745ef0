(* Scratch layout: everything the steady-state path touches is a flat
   preallocated int array — per-level frontiers with cursor lengths, a
   touched stack for O(|cone|) reset, and the netlist's CSR adjacency.
   [propagate] therefore performs no heap allocation at all. *)
type t = {
  net : Netlist.t;
  reach : Po_reach.t;
  pos : int array; (* PO net ids, by PO position *)
  delta : int array; (* faulty XOR good, for touched nets only *)
  queued : bool array;
  bucket : int array array; (* per level; capacity = nets at that level *)
  bucket_len : int array;
  touched : int array; (* stack of nets whose delta may be non-zero *)
  mutable ntouched : int;
  (* Plain mutable stats, always maintained: one add per frontier level
     and per call, nothing per gate event, so the cost is noise even
     with observability off.  [Explain.build_session] folds them into the global
     [Obs] counters after its parallel region. *)
  mutable n_propagates : int;
  mutable n_screened : int;
  mutable n_gate_events : int;
}

type stats = { propagates : int; screened : int; gate_events : int }

let create ?reach net =
  let n = Netlist.num_nets net in
  let depth = Netlist.depth net in
  let levels = Netlist.level_array net in
  let counts = Array.make (depth + 1) 0 in
  Array.iter (fun l -> counts.(l) <- counts.(l) + 1) levels;
  let reach = match reach with Some r -> r | None -> Po_reach.compute net in
  {
    net;
    reach;
    pos = Netlist.pos net;
    delta = Array.make n 0;
    queued = Array.make n false;
    bucket = Array.map (fun c -> Array.make (max 1 c) 0) counts;
    bucket_len = Array.make (depth + 1) 0;
    touched = Array.make (max 1 n) 0;
    ntouched = 0;
    n_propagates = 0;
    n_screened = 0;
    n_gate_events = 0;
  }

let netlist t = t.net
let reach t = t.reach

let stats t =
  { propagates = t.n_propagates; screened = t.n_screened; gate_events = t.n_gate_events }

let reset_stats t =
  t.n_propagates <- 0;
  t.n_screened <- 0;
  t.n_gate_events <- 0

let c_faults_simulated = Obs.counter "sim.faults_simulated"
let c_faults_screened = Obs.counter "sim.faults_screened"
let c_gate_events = Obs.counter "sim.gate_events"
let c_batches = Obs.counter "sim.batches"
let d_faults_per_batch = Obs.dist "sim.faults_per_batch"

let publish_stats t =
  if Obs.enabled () then begin
    Obs.add c_faults_simulated t.n_propagates;
    Obs.add c_faults_screened t.n_screened;
    Obs.add c_gate_events t.n_gate_events
  end;
  reset_stats t

(* Faulty-machine gate evaluation: operand [i] is
   [good.(src) lxor delta.(src)] for the gate's CSR fanin slice.  A
   twin of [Gate.eval_flat] specialised to the two-array read so no
   argument array (and no closure) is ever built.  Only reachable from
   fanout edges, so the driver is never an Input/Const. *)
(* The operand reads are written out longhand in every arm (rather than
   through a local helper function) because without flambda a local
   closure over [good]/[delta] is heap-allocated per gate event — the
   exact per-event garbage this kernel exists to avoid. *)
let eval_faulty code (good : int array) (delta : int array) (fanin : int array)
    lo hi =
  if code = Gate.code_buf then begin
    let s = fanin.(lo) in
    good.(s) lxor delta.(s)
  end
  else if code = Gate.code_not then begin
    let s = fanin.(lo) in
    lnot (good.(s) lxor delta.(s))
  end
  else if code = Gate.code_and then begin
    let s0 = fanin.(lo) in
    let acc = ref (good.(s0) lxor delta.(s0)) in
    for i = lo + 1 to hi - 1 do
      let s = fanin.(i) in
      acc := !acc land (good.(s) lxor delta.(s))
    done;
    !acc
  end
  else if code = Gate.code_nand then begin
    let s0 = fanin.(lo) in
    let acc = ref (good.(s0) lxor delta.(s0)) in
    for i = lo + 1 to hi - 1 do
      let s = fanin.(i) in
      acc := !acc land (good.(s) lxor delta.(s))
    done;
    lnot !acc
  end
  else if code = Gate.code_or then begin
    let s0 = fanin.(lo) in
    let acc = ref (good.(s0) lxor delta.(s0)) in
    for i = lo + 1 to hi - 1 do
      let s = fanin.(i) in
      acc := !acc lor (good.(s) lxor delta.(s))
    done;
    !acc
  end
  else if code = Gate.code_nor then begin
    let s0 = fanin.(lo) in
    let acc = ref (good.(s0) lxor delta.(s0)) in
    for i = lo + 1 to hi - 1 do
      let s = fanin.(i) in
      acc := !acc lor (good.(s) lxor delta.(s))
    done;
    lnot !acc
  end
  else if code = Gate.code_xor then begin
    let s0 = fanin.(lo) in
    let acc = ref (good.(s0) lxor delta.(s0)) in
    for i = lo + 1 to hi - 1 do
      let s = fanin.(i) in
      acc := !acc lxor (good.(s) lxor delta.(s))
    done;
    !acc
  end
  else if code = Gate.code_xnor then begin
    let s0 = fanin.(lo) in
    let acc = ref (good.(s0) lxor delta.(s0)) in
    for i = lo + 1 to hi - 1 do
      let s = fanin.(i) in
      acc := !acc lxor (good.(s) lxor delta.(s))
    done;
    lnot !acc
  end
  else invalid_arg "Fault_sim: unexpected gate in fanout cone"

let[@inline] enqueue queued (levels : int array) bucket (bucket_len : int array)
    m =
  if not queued.(m) then begin
    queued.(m) <- true;
    let l = levels.(m) in
    bucket.(l).(bucket_len.(l)) <- m;
    bucket_len.(l) <- bucket_len.(l) + 1
  end

(* Propagate the word-level difference [d0] injected at [site] through
   the fanout cone, level by level.  [t.delta] holds faulty XOR good for
   every net known to differ; fanout levels are strictly greater than a
   gate's own, so a frontier never grows while it is drained. *)
let propagate t ~good ~site d0 =
  t.n_propagates <- t.n_propagates + 1;
  let delta = t.delta in
  for i = 0 to t.ntouched - 1 do
    delta.(t.touched.(i)) <- 0
  done;
  t.ntouched <- 0;
  delta.(site) <- d0;
  t.touched.(0) <- site;
  t.ntouched <- 1;
  let net = t.net in
  let levels = Netlist.level_array net in
  let codes = Netlist.gate_codes net in
  let fi = Netlist.fanin_csr net in
  let fi_off = Netlist.fanin_offsets net in
  let fo = Netlist.fanout_csr net in
  let fo_off = Netlist.fanout_offsets net in
  let queued = t.queued in
  let bucket = t.bucket in
  let bucket_len = t.bucket_len in
  for e = fo_off.(site) to fo_off.(site + 1) - 1 do
    enqueue queued levels bucket bucket_len fo.(e)
  done;
  for lvl = 0 to Array.length bucket - 1 do
    let frontier = bucket.(lvl) in
    let len = bucket_len.(lvl) in
    t.n_gate_events <- t.n_gate_events + len;
    bucket_len.(lvl) <- 0;
    for i = 0 to len - 1 do
      let m = frontier.(i) in
      queued.(m) <- false;
      let faulty = eval_faulty codes.(m) good delta fi fi_off.(m) fi_off.(m + 1) in
      let d = faulty lxor good.(m) in
      let old = delta.(m) in
      if old = 0 && d <> 0 then begin
        t.touched.(t.ntouched) <- m;
        t.ntouched <- t.ntouched + 1
      end;
      if d <> old then begin
        delta.(m) <- d;
        for e = fo_off.(m) to fo_off.(m + 1) - 1 do
          enqueue queued levels bucket bucket_len fo.(e)
        done
      end
    done
  done

let iter_po_diffs_delta t ~good ~width ~site ~delta f =
  let mask = Logic.mask_of_width width in
  let d0 = delta land mask in
  let off = Po_reach.offsets t.reach in
  (* Two screens, counted as such: a zero injected delta (the stuck
     value equals the good value on every live pattern) and a site from
     which no PO is reachable both make propagation pointless. *)
  if d0 = 0 || off.(site + 1) = off.(site) then
    t.n_screened <- t.n_screened + 1
  else begin
    propagate t ~good ~site d0;
    let csr = Po_reach.reachable_csr t.reach in
    let d = t.delta in
    for i = off.(site) to off.(site + 1) - 1 do
      let oi = csr.(i) in
      let w = d.(t.pos.(oi)) land mask in
      if w <> 0 then f oi w
    done
  end

let iter_po_diffs t ~good ~width ~site ~stuck f =
  let stuck_word = if stuck then Logic.ones else 0 in
  iter_po_diffs_delta t ~good ~width ~site ~delta:(stuck_word lxor good.(site)) f

let po_diffs_delta t ~good ~width ~site ~delta =
  let out = ref [] in
  iter_po_diffs_delta t ~good ~width ~site ~delta (fun oi d -> out := (oi, d) :: !out);
  List.rev !out

let po_diffs t ~good ~width ~site ~stuck =
  let stuck_word = if stuck then Logic.ones else 0 in
  po_diffs_delta t ~good ~width ~site ~delta:(stuck_word lxor good.(site))

let detects t ~good ~width ~site ~stuck =
  let acc = ref 0 in
  iter_po_diffs t ~good ~width ~site ~stuck (fun _ d -> acc := !acc lor d);
  !acc

(* --- PPSFP batch pass ------------------------------------------------ *)

(* Multi-block fault propagation: where [propagate] walks a fault's
   fanout cone once per pattern block, the batch pass walks it *once*
   carrying one delta word per block.  Good and delta words live in
   transposed, net-major slabs ([net * nb + bi]) so the per-gate inner
   loop over blocks is a contiguous scan; the frontier, queued flags and
   level buckets — the per-event bookkeeping that dominates small-cone
   propagation — are paid once per gate event instead of once per
   (gate event, block).

   Sites may additionally be *pinned* for multi-site (multiplet)
   evaluation: a held site keeps its injected delta and is never
   re-evaluated (stuck-at semantics), a flipped site re-evaluates and
   then inverts (the Byzantine both-polarities callout surrogate,
   [lnot computed] exactly as [Scoring.overlay_of_multiplet] behaves).
   Because neither pin kind reads any other net and the netlist is
   feedback-free, one levelized sweep reaches the same fixpoint as the
   overlay simulator, bit for bit.

   Invariant: every [tdelta] word is masked to its block's live width.
   Seeds are injected masked; interior deltas then stay masked
   automatically, because with equal high bits on every fanin the gate
   evaluation reproduces the good machine's high bits exactly (all
   operators are bitwise), so the XOR against the good word clears
   them.  Flip pins re-mask explicitly after the inversion. *)
type batch = {
  bsim : t;
  nb : int; (* number of pattern blocks *)
  masks : int array; (* per block: live-width mask *)
  tgood : int array; (* shared read-only; [net * nb + bi] *)
  tdelta : int array; (* private faulty-XOR-good slab, same layout *)
  acc : int array; (* per-gate-event eval scratch, one word per block *)
  pin : int array; (* 0 = free, 1 = held, 2 = flipped *)
  pinned : int array; (* stack of pinned sites, for O(seeds) reset *)
  mutable npinned : int;
  btouched : int array; (* batch-private touched stack (see below) *)
  mutable nbtouched : int;
  mutable minl : int; (* frontier level bounds of the current sweep *)
  mutable maxl : int;
  act : int array;
      (* Active blocks of the current sweep, ascending: the seed delta
         was non-zero there.  A zero seed in a block keeps the whole
         cone at zero for that block, so eval, update, emission and the
         next reset all restrict to this list — the batch does strictly
         less word work than the scalar sweep, which walks the cone once
         per active block.  [reset_batch] reads the list of the sweep it
         is clearing; callers refill it afterwards. *)
  mutable nact : int;
  (* Plain batch stats, published by the owner after its region. *)
  mutable n_batches : int;
  mutable batch_faults : int list; (* per-batch fault counts, newest first *)
}

let transpose_goods nets nb (goods : Logic_sim.net_values array) =
  let tg = Array.make (nets * nb) 0 in
  for bi = 0 to nb - 1 do
    let g = goods.(bi) in
    for s = 0 to nets - 1 do
      tg.((s * nb) + bi) <- g.(s)
    done
  done;
  tg

let prepare_batch ?share t ~blocks ~goods =
  let nb = Array.length blocks in
  if nb = 0 then invalid_arg "Fault_sim.prepare_batch: empty block set";
  if Array.length goods <> nb then
    invalid_arg "Fault_sim.prepare_batch: goods/blocks length mismatch";
  let nets = Netlist.num_nets t.net in
  let tgood =
    match share with
    | Some b when b.bsim.net == t.net && b.nb = nb -> b.tgood
    | Some _ -> invalid_arg "Fault_sim.prepare_batch: incompatible ?share"
    | None -> transpose_goods nets nb goods
  in
  {
    bsim = t;
    nb;
    masks = Array.map (fun (b : Pattern.block) -> Logic.mask_of_width b.width) blocks;
    tgood;
    tdelta = Array.make (nets * nb) 0;
    acc = Array.make nb 0;
    pin = Array.make nets 0;
    pinned = Array.make (max 1 nets) 0;
    npinned = 0;
    btouched = Array.make (max 1 nets) 0;
    nbtouched = 0;
    minl = max_int;
    maxl = -1;
    act = Array.make nb 0;
    nact = 0;
    n_batches = 0;
    batch_faults = [];
  }

let batch_sim b = b.bsim
let num_blocks b = b.nb

(* The batch keeps its own touched stack (rather than borrowing
   [t.touched]) so scalar [propagate] calls and batch sweeps can
   interleave on one simulator: each resets only the slab it dirtied.
   The queued flags and level buckets *are* shared — both drains restore
   them to all-false / all-zero on exit. *)
let reset_batch b =
  let td = b.tdelta and nb = b.nb and act = b.act in
  for i = 0 to b.nbtouched - 1 do
    let o = b.btouched.(i) * nb in
    for a = 0 to b.nact - 1 do
      td.(o + act.(a)) <- 0
    done
  done;
  b.nbtouched <- 0;
  for i = 0 to b.npinned - 1 do
    let s = b.pinned.(i) in
    b.pin.(s) <- 0;
    let o = s * nb in
    for a = 0 to b.nact - 1 do
      td.(o + act.(a)) <- 0
    done
  done;
  b.npinned <- 0;
  b.minl <- max_int;
  b.maxl <- -1

(* Batch gate evaluation into [b.acc]: the non-inverting base operator
   folds over the fanin slice with the block loop innermost (contiguous
   in the transposed slabs); inverting codes flip afterwards.  Reachable
   only from fanout edges, so the driver is never an Input/Const.

   This loop and the drain below are the only places in the repository
   using unchecked array access.  The batch kernel performs an order of
   magnitude more reads per gate event than the scalar one (two slab
   words per (fanin, block)), so bounds checks — cheap noise in the
   scalar kernel — became its dominant cost.  Every index is
   structurally in range: fanin/fanout slices come from the netlist's
   own CSR offsets, net ids are below [num_nets] by construction, slab
   offsets are [net * nb + bi] with [bi < nb], and each level bucket
   was sized to the number of nets at that level with the [queued] flag
   guaranteeing at most one entry per net. *)
(* Sparse variant: only the active blocks of the current sweep.  The
   indirect [act] index defeats the sequential-access pattern, so the
   drain picks this only when some blocks are inactive; at full activity
   the dense twin below wins. *)
let eval_batch_act b (codes : int array) (fi : int array) (fi_off : int array) m =
  let nb = b.nb in
  let tg = b.tgood and td = b.tdelta and acc = b.acc in
  let act = b.act and nact = b.nact in
  let lo = Array.unsafe_get fi_off m and hi = Array.unsafe_get fi_off (m + 1) in
  let code = Array.unsafe_get codes m in
  let o0 = Array.unsafe_get fi lo * nb in
  for a = 0 to nact - 1 do
    let bi = Array.unsafe_get act a in
    Array.unsafe_set acc bi
      (Array.unsafe_get tg (o0 + bi) lxor Array.unsafe_get td (o0 + bi))
  done;
  if code = Gate.code_and || code = Gate.code_nand then
    for i = lo + 1 to hi - 1 do
      let o = Array.unsafe_get fi i * nb in
      for a = 0 to nact - 1 do
        let bi = Array.unsafe_get act a in
        Array.unsafe_set acc bi
          (Array.unsafe_get acc bi
          land (Array.unsafe_get tg (o + bi) lxor Array.unsafe_get td (o + bi)))
      done
    done
  else if code = Gate.code_or || code = Gate.code_nor then
    for i = lo + 1 to hi - 1 do
      let o = Array.unsafe_get fi i * nb in
      for a = 0 to nact - 1 do
        let bi = Array.unsafe_get act a in
        Array.unsafe_set acc bi
          (Array.unsafe_get acc bi
          lor (Array.unsafe_get tg (o + bi) lxor Array.unsafe_get td (o + bi)))
      done
    done
  else if code = Gate.code_xor || code = Gate.code_xnor then
    for i = lo + 1 to hi - 1 do
      let o = Array.unsafe_get fi i * nb in
      for a = 0 to nact - 1 do
        let bi = Array.unsafe_get act a in
        Array.unsafe_set acc bi
          (Array.unsafe_get acc bi
          lxor (Array.unsafe_get tg (o + bi) lxor Array.unsafe_get td (o + bi)))
      done
    done
  else if code = Gate.code_buf || code = Gate.code_not then ()
  else invalid_arg "Fault_sim: unexpected gate in fanout cone";
  if
    code = Gate.code_not || code = Gate.code_nand || code = Gate.code_nor
    || code = Gate.code_xnor
  then
    for a = 0 to nact - 1 do
      let bi = Array.unsafe_get act a in
      Array.unsafe_set acc bi (lnot (Array.unsafe_get acc bi))
    done

(* Dense twin of [eval_batch_act] for fully-active sweeps: straight-line
   sequential slab access, no index indirection. *)
let eval_batch b (codes : int array) (fi : int array) (fi_off : int array) m =
  let nb = b.nb in
  let tg = b.tgood and td = b.tdelta and acc = b.acc in
  let lo = Array.unsafe_get fi_off m and hi = Array.unsafe_get fi_off (m + 1) in
  let code = Array.unsafe_get codes m in
  let o0 = Array.unsafe_get fi lo * nb in
  for bi = 0 to nb - 1 do
    Array.unsafe_set acc bi
      (Array.unsafe_get tg (o0 + bi) lxor Array.unsafe_get td (o0 + bi))
  done;
  if code = Gate.code_and || code = Gate.code_nand then
    for i = lo + 1 to hi - 1 do
      let o = Array.unsafe_get fi i * nb in
      for bi = 0 to nb - 1 do
        Array.unsafe_set acc bi
          (Array.unsafe_get acc bi
          land (Array.unsafe_get tg (o + bi) lxor Array.unsafe_get td (o + bi)))
      done
    done
  else if code = Gate.code_or || code = Gate.code_nor then
    for i = lo + 1 to hi - 1 do
      let o = Array.unsafe_get fi i * nb in
      for bi = 0 to nb - 1 do
        Array.unsafe_set acc bi
          (Array.unsafe_get acc bi
          lor (Array.unsafe_get tg (o + bi) lxor Array.unsafe_get td (o + bi)))
      done
    done
  else if code = Gate.code_xor || code = Gate.code_xnor then
    for i = lo + 1 to hi - 1 do
      let o = Array.unsafe_get fi i * nb in
      for bi = 0 to nb - 1 do
        Array.unsafe_set acc bi
          (Array.unsafe_get acc bi
          lxor (Array.unsafe_get tg (o + bi) lxor Array.unsafe_get td (o + bi)))
      done
    done
  else if code = Gate.code_buf || code = Gate.code_not then ()
  else invalid_arg "Fault_sim: unexpected gate in fanout cone";
  if
    code = Gate.code_not || code = Gate.code_nand || code = Gate.code_nor
    || code = Gate.code_xnor
  then
    for bi = 0 to nb - 1 do
      Array.unsafe_set acc bi (lnot (Array.unsafe_get acc bi))
    done

(* Enqueue a fanout net, tracking the frontier's level bounds so the
   drain scans only [minl .. maxl] instead of the whole depth — a
   near-output seed touches a handful of levels, not the circuit's. *)
let enqueue_batch b (levels : int array) m =
  let t = b.bsim in
  if not t.queued.(m) then begin
    t.queued.(m) <- true;
    let l = levels.(m) in
    t.bucket.(l).(t.bucket_len.(l)) <- m;
    t.bucket_len.(l) <- t.bucket_len.(l) + 1;
    if l < b.minl then b.minl <- l;
    if l > b.maxl then b.maxl <- l
  end

(* Seed one site: write its per-block deltas (already masked), record
   the pin kind, and enqueue its fanouts.  [deltas] is read, not kept. *)
let seed_batch b ~site ~pin_kind (deltas : int array) =
  let t = b.bsim in
  let nb = b.nb in
  let o = site * nb in
  for bi = 0 to nb - 1 do
    b.tdelta.(o + bi) <- deltas.(bi)
  done;
  b.pin.(site) <- pin_kind;
  b.pinned.(b.npinned) <- site;
  b.npinned <- b.npinned + 1;
  let levels = Netlist.level_array t.net in
  let fo = Netlist.fanout_csr t.net in
  let fo_off = Netlist.fanout_offsets t.net in
  for e = fo_off.(site) to fo_off.(site + 1) - 1 do
    enqueue_batch b levels fo.(e)
  done

(* Drain the frontier level by level across [minl .. maxl] ([maxl] only
   grows, fanouts being strictly deeper than their gate).  One gate
   event per popped net, exactly as the scalar kernel counts them — the
   batch saving shows up as roughly [nb] times fewer events for the
   same diagnosis. *)
let drain_batch b =
  let t = b.bsim in
  t.n_propagates <- t.n_propagates + 1;
  let net = t.net in
  let nb = b.nb in
  let levels = Netlist.level_array net in
  let codes = Netlist.gate_codes net in
  let fi = Netlist.fanin_csr net in
  let fi_off = Netlist.fanin_offsets net in
  let fo = Netlist.fanout_csr net in
  let fo_off = Netlist.fanout_offsets net in
  let tg = b.tgood and td = b.tdelta and acc = b.acc in
  let act = b.act and nact = b.nact in
  let dense = nact = nb in
  let lvl = ref b.minl in
  while !lvl <= b.maxl do
    let frontier = t.bucket.(!lvl) in
    let len = t.bucket_len.(!lvl) in
    t.n_gate_events <- t.n_gate_events + len;
    t.bucket_len.(!lvl) <- 0;
    for i = 0 to len - 1 do
      let m = Array.unsafe_get frontier i in
      Array.unsafe_set t.queued m false;
      let pin = Array.unsafe_get b.pin m in
      if pin <> 1 then begin
        if dense then eval_batch b codes fi fi_off m
        else eval_batch_act b codes fi fi_off m;
        let o = m * nb in
        (* Branch-free change tracking: one OR-accumulator per question
           (any old word non-zero, any new word non-zero, any word
           changed) and unconditional writes — cheaper than per-word
           conditionals at batch widths.  Each loop comes in the same
           dense/sparse pair as the eval above. *)
        let old_or = ref 0 in
        let new_or = ref 0 in
        let diff_or = ref 0 in
        (if pin = 2 then
           (* Flipped pin (multiplet byzantine site): invert the
              computed delta, re-masked because the inversion sets the
              dead high bits. *)
           if dense then
             for bi = 0 to nb - 1 do
               let old = Array.unsafe_get td (o + bi) in
               let d =
                 lnot (Array.unsafe_get acc bi lxor Array.unsafe_get tg (o + bi))
                 land Array.unsafe_get b.masks bi
               in
               old_or := !old_or lor old;
               new_or := !new_or lor d;
               diff_or := !diff_or lor (d lxor old);
               Array.unsafe_set td (o + bi) d
             done
           else
             for a = 0 to nact - 1 do
               let bi = Array.unsafe_get act a in
               let old = Array.unsafe_get td (o + bi) in
               let d =
                 lnot (Array.unsafe_get acc bi lxor Array.unsafe_get tg (o + bi))
                 land Array.unsafe_get b.masks bi
               in
               old_or := !old_or lor old;
               new_or := !new_or lor d;
               diff_or := !diff_or lor (d lxor old);
               Array.unsafe_set td (o + bi) d
             done
         else if dense then
           for bi = 0 to nb - 1 do
             let old = Array.unsafe_get td (o + bi) in
             let d = Array.unsafe_get acc bi lxor Array.unsafe_get tg (o + bi) in
             old_or := !old_or lor old;
             new_or := !new_or lor d;
             diff_or := !diff_or lor (d lxor old);
             Array.unsafe_set td (o + bi) d
           done
         else
           for a = 0 to nact - 1 do
             let bi = Array.unsafe_get act a in
             let old = Array.unsafe_get td (o + bi) in
             let d = Array.unsafe_get acc bi lxor Array.unsafe_get tg (o + bi) in
             old_or := !old_or lor old;
             new_or := !new_or lor d;
             diff_or := !diff_or lor (d lxor old);
             Array.unsafe_set td (o + bi) d
           done);
        if !old_or = 0 && !new_or <> 0 then begin
          b.btouched.(b.nbtouched) <- m;
          b.nbtouched <- b.nbtouched + 1
        end;
        if !diff_or <> 0 then
          for e = fo_off.(m) to fo_off.(m + 1) - 1 do
            enqueue_batch b levels (Array.unsafe_get fo e)
          done
      end
    done;
    incr lvl
  done

(* Canonical triple emission for one single-site injection: blocks
   ascending, then the site's reachable POs in CSR order, masked words
   only — byte-compatible with the per-fault [iter_po_diffs] sweep and
   therefore with every [Sig_cache] entry.  Blocks where the seed delta
   was zero are skipped outright: the whole cone carries zero there, so
   no PO word can differ (the scalar sweep screens exactly those
   (fault, block) pairs). *)
let emit_reach_diffs b ~site f =
  let t = b.bsim in
  let nb = b.nb in
  let off = Po_reach.offsets t.reach in
  let csr = Po_reach.reachable_csr t.reach in
  let td = b.tdelta in
  let lo = off.(site) and hi = off.(site + 1) in
  for a = 0 to b.nact - 1 do
    let bi = Array.unsafe_get b.act a in
    let mask = Array.unsafe_get b.masks bi in
    for i = lo to hi - 1 do
      let oi = Array.unsafe_get csr i in
      let w =
        Array.unsafe_get td ((Array.unsafe_get t.pos oi * nb) + bi) land mask
      in
      if w <> 0 then f bi oi w
    done
  done

let batch_po_diffs_delta b ~site ~deltas f =
  let t = b.bsim in
  let off = Po_reach.offsets t.reach in
  let any = ref false in
  for bi = 0 to b.nb - 1 do
    if deltas.(bi) land b.masks.(bi) <> 0 then any := true
  done;
  (* Same two screens as the scalar kernel, now at whole-fault
     granularity: one screened injection here stands for [nb] scalar
     ones. *)
  if (not !any) || off.(site + 1) = off.(site) then
    t.n_screened <- t.n_screened + 1
  else begin
    reset_batch b;
    b.nact <- 0;
    for bi = 0 to b.nb - 1 do
      let d = deltas.(bi) land b.masks.(bi) in
      b.acc.(bi) <- d;
      if d <> 0 then begin
        b.act.(b.nact) <- bi;
        b.nact <- b.nact + 1
      end
    done;
    seed_batch b ~site ~pin_kind:1 b.acc;
    drain_batch b;
    emit_reach_diffs b ~site f
  end

let batch_po_diffs b ~site ~stuck f =
  let t = b.bsim in
  let nb = b.nb in
  let off = Po_reach.offsets t.reach in
  let stuck_word = if stuck then Logic.ones else 0 in
  let tg = b.tgood in
  let o = site * nb in
  let any = ref false in
  for bi = 0 to nb - 1 do
    if (stuck_word lxor tg.(o + bi)) land b.masks.(bi) <> 0 then any := true
  done;
  if (not !any) || off.(site + 1) = off.(site) then
    t.n_screened <- t.n_screened + 1
  else begin
    reset_batch b;
    b.nact <- 0;
    for bi = 0 to nb - 1 do
      let d = (stuck_word lxor tg.(o + bi)) land b.masks.(bi) in
      b.acc.(bi) <- d;
      if d <> 0 then begin
        b.act.(b.nact) <- bi;
        b.nact <- b.nact + 1
      end
    done;
    seed_batch b ~site ~pin_kind:1 b.acc;
    drain_batch b;
    emit_reach_diffs b ~site f
  end

let batch_multiplet_diffs ?(held = []) b ~faults f =
  let t = b.bsim in
  let nb = b.nb in
  reset_batch b;
  (* Every pin as (site, kind, seed delta of block [bi]).  A held word
     pins the site at that word; of the multiplet, one polarity pins the
     site held at its stuck word and both polarities pin it flipped
     ([lnot computed], the Byzantine surrogate), seeded as
     flipped-from-good, i.e. all live bits set.  A held site drops any
     multiplet pin on the same net — the overlay's last write wins. *)
  let held_delta site word =
    let o = site * nb in
    fun bi -> (word bi lxor b.tgood.(o + bi)) land b.masks.(bi)
  in
  let rec group acc = function
    | [] -> acc
    | (site, stuck) :: rest ->
      let same, other = List.partition (fun (s, _) -> s = site) rest in
      (* Distinct polarities only, matching [Scoring.overlay_of_multiplet]:
         a site listed twice with one polarity is still a plain stuck-at. *)
      let acc =
        if List.mem_assoc site held then acc
        else
          match List.sort_uniq compare (stuck :: List.map snd same) with
          | [ st ] ->
            let sw = if st then Logic.ones else 0 in
            (site, 1, held_delta site (fun _ -> sw)) :: acc
          | _ -> (site, 2, fun bi -> b.masks.(bi)) :: acc
      in
      group acc other
  in
  let pins =
    List.map (fun (site, words) -> (site, 1, held_delta site (Array.get words))) held
    @ List.rev (group [] faults)
  in
  (* Active blocks = union over pins of the blocks with a non-zero seed
     (a flipped site has every block).  Seeding writes whole rows, so
     the union must be fixed before the first seed. *)
  b.nact <- 0;
  for bi = 0 to nb - 1 do
    if List.exists (fun (_, _, d) -> d bi <> 0) pins then begin
      b.act.(b.nact) <- bi;
      b.nact <- b.nact + 1
    end
  done;
  List.iter
    (fun (site, pin_kind, d) ->
      for bi = 0 to nb - 1 do
        b.acc.(bi) <- d bi
      done;
      seed_batch b ~site ~pin_kind b.acc)
    pins;
  drain_batch b;
  let td = b.tdelta in
  let npos = Array.length t.pos in
  for a = 0 to b.nact - 1 do
    let bi = b.act.(a) in
    let mask = b.masks.(bi) in
    for oi = 0 to npos - 1 do
      let w = td.((t.pos.(oi) * nb) + bi) land mask in
      if w <> 0 then f bi oi w
    done
  done

(* Blocks outside the act list carry zero delta everywhere (every sweep
   writes and resets active blocks only), so one XOR reads any block. *)
let batch_value b ~net ~block =
  let o = (net * b.nb) + block in
  b.tgood.(o) lxor b.tdelta.(o)

let batch_driven b ~net ~block =
  let g = b.bsim.net in
  let fi = Netlist.fanin_csr g and off = Netlist.fanin_offsets g in
  let lo = off.(net) and hi = off.(net + 1) in
  (* Inputs and constants have no fanin: their driven word is the
     good-machine one. *)
  if lo = hi then b.tgood.((net * b.nb) + block)
  else begin
    let code = (Netlist.gate_codes g).(net) in
    let v i = batch_value b ~net:fi.(i) ~block in
    let acc = ref (v lo) in
    for i = lo + 1 to hi - 1 do
      acc :=
        if code = Gate.code_and || code = Gate.code_nand then !acc land v i
        else if code = Gate.code_or || code = Gate.code_nor then !acc lor v i
        else !acc lxor v i
    done;
    if
      code = Gate.code_not || code = Gate.code_nand || code = Gate.code_nor
      || code = Gate.code_xnor
    then lnot !acc
    else !acc
  end

let simulate_batch b ~n ~fault f =
  b.n_batches <- b.n_batches + 1;
  b.batch_faults <- n :: b.batch_faults;
  for i = 0 to n - 1 do
    let site, stuck = fault i in
    batch_po_diffs b ~site ~stuck (fun bi oi w -> f i bi oi w)
  done

let publish_batch_stats b =
  if Obs.enabled () then begin
    Obs.add c_batches b.n_batches;
    List.iter (fun n -> Obs.record d_faults_per_batch n) (List.rev b.batch_faults)
  end;
  b.n_batches <- 0;
  b.batch_faults <- []

let signature t ?goods pats ~site ~stuck =
  let npat = Pattern.count pats in
  let blocks = Pattern.blocks pats in
  (match goods with
  | Some g when Array.length g <> List.length blocks ->
    invalid_arg "Fault_sim.signature: goods/blocks length mismatch"
  | Some _ | None -> ());
  let sig_ = Array.init (Netlist.num_pos t.net) (fun _ -> Bitvec.create npat) in
  List.iteri
    (fun bi block ->
      let good =
        match goods with
        | Some g -> g.(bi)
        | None -> Logic_sim.simulate_block t.net block
      in
      iter_po_diffs t ~good ~width:block.Pattern.width ~site ~stuck (fun oi d ->
          Logic.iter_bits d (fun k ->
              Bitvec.set sig_.(oi) (block.Pattern.base + k) true)))
    blocks;
  sig_

(* PPSFP fault propagation: a fault's fanout cone is walked *once*,
   carrying one delta word per pattern block.  Good and delta words live
   in transposed, net-major slabs ([net * nb + bi]) so the per-gate
   inner loop over blocks is a contiguous scan; the frontier, queued
   flags and level buckets — the per-event bookkeeping that dominates
   small-cone propagation — are paid once per gate event instead of
   once per (gate event, block).  Everything the steady-state path
   touches is a flat preallocated array reset by cursor: per-level
   frontiers, a touched stack for O(|cone|) reset, the netlist's CSR
   adjacency.

   Sites may additionally be *pinned* for multi-site (multiplet)
   evaluation: a held site keeps its injected delta and is never
   re-evaluated (stuck-at semantics), a flipped site re-evaluates and
   then inverts ([lnot computed], the Byzantine both-polarities callout
   surrogate).  Because neither pin kind reads any other net and the
   netlist is feedback-free, one levelized sweep reaches the same
   fixpoint as the overlay simulator, bit for bit.

   Invariant: every [tdelta] word is masked to its block's live width.
   Seeds are injected masked; interior deltas then stay masked
   automatically, because with equal high bits on every fanin the gate
   evaluation reproduces the good machine's high bits exactly (all
   operators are bitwise), so the XOR against the good word clears
   them.  Flip pins re-mask explicitly after the inversion.

   The drain reads its reference machine from [tref]: the good words,
   or — once a frame exists — the frame a [hold] left, whose words keep
   the good machine's high bits (its deltas were masked), so the
   invariant holds against either. *)

(* A held base: one sweep's resolved words and pins, the reference of
   later change sweeps.  Only the rows the base touched differ from the
   good words, so emptying it rewrites those; the empty frame is the
   good machine. *)
type frame = {
  base : int array; (* [net * nb + bi]: the base machine's words *)
  bpin : int array; (* per net: its pin kind in the base *)
  rows : int array; (* nets whose base row or pin differs from good *)
  mutable nrows : int;
}

(* The good machine of one block group: written once, by [good], and
   read by every simulator bound to it. *)
type good = { nb : int; words : int array; masks : int array }

let good net blocks =
  let nb = Array.length blocks in
  let words =
    if nb = 1 then Logic_sim.simulate_block net blocks.(0)
    else begin
      let nets = Netlist.num_nets net in
      let words = Array.make (nets * nb) 0 in
      Array.iteri
        (fun bi block ->
          let g = Logic_sim.simulate_block net block in
          for s = 0 to nets - 1 do
            words.((s * nb) + bi) <- g.(s)
          done)
        blocks;
      words
    end
  in
  let masks = Array.map (fun (b : Pattern.block) -> Logic.mask_of_width b.width) blocks in
  { nb; words; masks }

type t = {
  net : Netlist.t;
  reach : Po_reach.t;
  pos : int array; (* PO net ids, by PO position *)
  po_of : int array; (* per net: its PO position, or -1 *)
  reached : int array; (* an injection site's reachable PO positions *)
  queued : bool array;
  bucket : int array array; (* per level; capacity = nets at that level *)
  bucket_len : int array;
  nb : int; (* number of pattern blocks *)
  mutable good : good; (* read, never written; [rebind] swaps it *)
  mutable tref : int array; (* the reference the drain reads: [good.words] or a frame *)
  tdelta : int array; (* private faulty-XOR-reference slab, [net * nb + bi] *)
  acc : int array; (* per-gate-event eval scratch, one word per block *)
  pin : int array; (* 0 = free, 1 = held, 2 = flipped *)
  pinned : int array; (* stack of pinned sites, for O(seeds) reset *)
  mutable npinned : int;
  mutable frame : frame option; (* allocated by the first non-empty hold *)
  touched : int array; (* stack of nets whose delta may be non-zero *)
  mutable ntouched : int;
  mutable minl : int; (* frontier level bounds of the current sweep *)
  mutable maxl : int;
  act : int array;
      (* Active blocks of the current sweep, ascending: the seed delta
         was non-zero there.  A zero seed in a block keeps the whole
         cone at zero for that block, so emission and the next reset
         restrict to this list; the drain evaluates every block and
         writes those zeros.  [reset_batch] reads the list of the sweep
         it is clearing; callers refill it afterwards. *)
  mutable nact : int;
  (* Plain mutable stats, always maintained: one add per frontier level
     and per sweep, nothing per gate event, so the cost is noise even
     with observability off.  Owners fold them into the bound [Obs]
     sink after their parallel region ([publish_stats]). *)
  mutable n_propagates : int;
  mutable n_screened : int;
  mutable n_gate_events : int;
  mutable n_batches : int;
  mutable batch_faults : int list; (* per-batch fault counts, newest first *)
}

(* The kernel reads the good words unchecked, so a good machine of
   another netlist is refused here. *)
let check_good fn net (g : good) =
  if Array.length g.words <> Netlist.num_nets net * g.nb then
    invalid_arg (fn ^ ": good machine of another netlist")

let create ?reach net (good : good) =
  let nb = good.nb in
  if nb = 0 then invalid_arg "Fault_sim.create: empty block set";
  check_good "Fault_sim.create" net good;
  let nets = Netlist.num_nets net in
  let depth = Netlist.depth net in
  let counts = Array.make (depth + 1) 0 in
  Array.iter (fun l -> counts.(l) <- counts.(l) + 1) (Netlist.level_array net);
  let reach = match reach with Some r -> r | None -> Po_reach.compute net in
  let pos = Netlist.pos net in
  let po_of = Array.make nets (-1) in
  Array.iteri (fun oi n -> po_of.(n) <- oi) pos;
  {
    net;
    reach;
    pos;
    po_of;
    reached = Array.make (max 1 (Array.length pos)) 0;
    queued = Array.make nets false;
    bucket = Array.map (fun c -> Array.make (max 1 c) 0) counts;
    bucket_len = Array.make (depth + 1) 0;
    nb;
    good;
    tref = good.words;
    tdelta = Array.make (nets * nb) 0;
    acc = Array.make nb 0;
    pin = Array.make nets 0;
    pinned = Array.make (max 1 nets) 0;
    npinned = 0;
    frame = None;
    touched = Array.make (max 1 nets) 0;
    ntouched = 0;
    minl = max_int;
    maxl = -1;
    act = Array.make nb 0;
    nact = 0;
    n_propagates = 0;
    n_screened = 0;
    n_gate_events = 0;
    n_batches = 0;
    batch_faults = [];
  }

(* A frame's base rows were copied from the old good machine, so a
   framed simulator keeps its binding.  The delta slab needs no
   clearing: every sweep resets what the previous one wrote, and that
   reset reads the act list, not the masks. *)
let rebind t (good : good) =
  if Option.is_some t.frame then
    invalid_arg "Fault_sim.rebind: the simulator holds a frame";
  if good.nb <> t.nb then invalid_arg "Fault_sim.rebind: block count mismatch";
  check_good "Fault_sim.rebind" t.net good;
  t.good <- good;
  t.tref <- good.words

let c_faults_simulated = Obs.counter "sim.faults_simulated"
let c_faults_screened = Obs.counter "sim.faults_screened"
let c_gate_events = Obs.counter "sim.gate_events"
let c_batches = Obs.counter "sim.batches"
let d_faults_per_batch = Obs.dist "sim.faults_per_batch"

let publish_stats t =
  if Obs.enabled () then begin
    Obs.add c_faults_simulated t.n_propagates;
    Obs.add c_faults_screened t.n_screened;
    Obs.add c_gate_events t.n_gate_events;
    Obs.add c_batches t.n_batches;
    List.iter (fun n -> Obs.record d_faults_per_batch n) (List.rev t.batch_faults)
  end;
  t.n_propagates <- 0;
  t.n_screened <- 0;
  t.n_gate_events <- 0;
  t.n_batches <- 0;
  t.batch_faults <- []

(* Clear what the last sweep wrote: its touched rows and pinned sites,
   over its active blocks.  The drain leaves the queued flags and level
   buckets all-false / all-zero on exit.  A pinned site gets its base
   pin back: the base pins stay in force from one change sweep to the
   next. *)
let reset_batch b =
  let td = b.tdelta and nb = b.nb and act = b.act in
  for i = 0 to b.ntouched - 1 do
    let o = b.touched.(i) * nb in
    for a = 0 to b.nact - 1 do
      td.(o + act.(a)) <- 0
    done
  done;
  b.ntouched <- 0;
  for i = b.npinned - 1 downto 0 do
    let s = b.pinned.(i) in
    b.pin.(s) <- (match b.frame with Some fr -> fr.bpin.(s) | None -> 0);
    let o = s * nb in
    for a = 0 to b.nact - 1 do
      td.(o + act.(a)) <- 0
    done
  done;
  b.npinned <- 0;
  b.minl <- max_int;
  b.maxl <- -1

(* Back to the empty frame, the good machine: the base rows get their
   good words and free pins back.  Call after [reset_batch], which puts
   the base pins back first. *)
let clear_frame b =
  match b.frame with
  | None -> ()
  | Some fr ->
    let nb = b.nb in
    for i = 0 to fr.nrows - 1 do
      let s = fr.rows.(i) in
      Array.blit b.good.words (s * nb) fr.base (s * nb) nb;
      fr.bpin.(s) <- 0;
      b.pin.(s) <- 0
    done;
    fr.nrows <- 0

(* Batch gate evaluation into [b.acc]: the kind picks the
   non-inverting base operator, folded over the fanin slice with the
   block loop innermost (contiguous in the transposed slabs); inverting
   kinds flip afterwards.  The drain reaches a gate only along fanout
   edges, so the driver is never an Input/Const.  The kind is tested
   with [==] in a fixed order, as [Gate.eval] does and for its reason:
   a [match] would dispatch through a jump table.

   This loop and the drain below are the only places in the repository
   using unchecked array access.  The kernel performs two slab reads per
   (fanin, block) at every gate event, so bounds checks became its
   dominant cost.  Every index is
   structurally in range: fanin/fanout slices come from the netlist's
   own CSR offsets, net ids are below [num_nets] by construction, slab
   offsets are [net * nb + bi] with [bi < nb], and each level bucket
   was sized to the number of nets at that level with the [queued] flag
   guaranteeing at most one entry per net. *)
let eval_batch b (kinds : Gate.kind array) (fi : int array) (fi_off : int array) m =
  let nb = b.nb in
  let tg = b.tref and td = b.tdelta and acc = b.acc in
  let lo = Array.unsafe_get fi_off m and hi = Array.unsafe_get fi_off (m + 1) in
  let kind = Array.unsafe_get kinds m in
  let o0 = Array.unsafe_get fi lo * nb in
  for bi = 0 to nb - 1 do
    Array.unsafe_set acc bi
      (Array.unsafe_get tg (o0 + bi) lxor Array.unsafe_get td (o0 + bi))
  done;
  if kind == Gate.And || kind == Gate.Nand then
    for i = lo + 1 to hi - 1 do
      let o = Array.unsafe_get fi i * nb in
      for bi = 0 to nb - 1 do
        Array.unsafe_set acc bi
          (Array.unsafe_get acc bi
          land (Array.unsafe_get tg (o + bi) lxor Array.unsafe_get td (o + bi)))
      done
    done
  else if kind == Gate.Or || kind == Gate.Nor then
    for i = lo + 1 to hi - 1 do
      let o = Array.unsafe_get fi i * nb in
      for bi = 0 to nb - 1 do
        Array.unsafe_set acc bi
          (Array.unsafe_get acc bi
          lor (Array.unsafe_get tg (o + bi) lxor Array.unsafe_get td (o + bi)))
      done
    done
  else if kind == Gate.Xor || kind == Gate.Xnor then
    for i = lo + 1 to hi - 1 do
      let o = Array.unsafe_get fi i * nb in
      for bi = 0 to nb - 1 do
        Array.unsafe_set acc bi
          (Array.unsafe_get acc bi
          lxor (Array.unsafe_get tg (o + bi) lxor Array.unsafe_get td (o + bi)))
      done
    done
  else if not (kind == Gate.Buf || kind == Gate.Not) then
    invalid_arg "Fault_sim: unexpected gate in fanout cone";
  if kind == Gate.Not || kind == Gate.Nand || kind == Gate.Nor || kind == Gate.Xnor then
    for bi = 0 to nb - 1 do
      Array.unsafe_set acc bi (lnot (Array.unsafe_get acc bi))
    done

(* Enqueue a fanout net, tracking the frontier's level bounds so the
   drain scans only [minl .. maxl] instead of the whole depth — a
   near-output seed touches a handful of levels, not the circuit's. *)
let enqueue_batch b (levels : int array) m =
  if not b.queued.(m) then begin
    b.queued.(m) <- true;
    let l = levels.(m) in
    b.bucket.(l).(b.bucket_len.(l)) <- m;
    b.bucket_len.(l) <- b.bucket_len.(l) + 1;
    if l < b.minl then b.minl <- l;
    if l > b.maxl then b.maxl <- l
  end

(* Seed one site: write its per-block deltas (already masked), record
   the pin kind, and enqueue its fanouts.  [deltas] is read, not kept. *)
let seed_batch b ~site ~pin_kind (deltas : int array) =
  let nb = b.nb in
  let o = site * nb in
  for bi = 0 to nb - 1 do
    b.tdelta.(o + bi) <- deltas.(bi)
  done;
  b.pin.(site) <- pin_kind;
  b.pinned.(b.npinned) <- site;
  b.npinned <- b.npinned + 1;
  let levels = Netlist.level_array b.net in
  let fo = Netlist.fanout_csr b.net in
  let fo_off = Netlist.fanout_offsets b.net in
  for e = fo_off.(site) to fo_off.(site + 1) - 1 do
    enqueue_batch b levels fo.(e)
  done

(* Drain the frontier level by level across [minl .. maxl] ([maxl] only
   grows, fanouts being strictly deeper than their gate).  One gate
   event per popped net, however many blocks it carries. *)
let drain_batch b =
  b.n_propagates <- b.n_propagates + 1;
  let net = b.net in
  let nb = b.nb in
  let levels = Netlist.level_array net in
  let kinds = Netlist.kinds net in
  let fi = Netlist.fanin_csr net in
  let fi_off = Netlist.fanin_offsets net in
  let fo = Netlist.fanout_csr net in
  let fo_off = Netlist.fanout_offsets net in
  let tg = b.tref and td = b.tdelta and acc = b.acc in
  let masks = b.good.masks in
  let lvl = ref b.minl in
  while !lvl <= b.maxl do
    let frontier = b.bucket.(!lvl) in
    let len = b.bucket_len.(!lvl) in
    b.n_gate_events <- b.n_gate_events + len;
    b.bucket_len.(!lvl) <- 0;
    for i = 0 to len - 1 do
      let m = Array.unsafe_get frontier i in
      Array.unsafe_set b.queued m false;
      let pin = Array.unsafe_get b.pin m in
      if pin <> 1 then begin
        eval_batch b kinds fi fi_off m;
        let o = m * nb in
        (* Branch-free change tracking: one OR-accumulator per question
           (any old word non-zero, any new word non-zero, any word
           changed) and unconditional writes — cheaper than per-word
           conditionals at batch widths. *)
        let old_or = ref 0 in
        let new_or = ref 0 in
        let diff_or = ref 0 in
        (if pin = 2 then
           (* Flipped pin (multiplet byzantine site): invert the
              computed delta, re-masked because the inversion sets the
              dead high bits. *)
           for bi = 0 to nb - 1 do
             let old = Array.unsafe_get td (o + bi) in
             let d =
               lnot (Array.unsafe_get acc bi lxor Array.unsafe_get tg (o + bi))
               land Array.unsafe_get masks bi
             in
             old_or := !old_or lor old;
             new_or := !new_or lor d;
             diff_or := !diff_or lor (d lxor old);
             Array.unsafe_set td (o + bi) d
           done
         else
           for bi = 0 to nb - 1 do
             let old = Array.unsafe_get td (o + bi) in
             let d = Array.unsafe_get acc bi lxor Array.unsafe_get tg (o + bi) in
             old_or := !old_or lor old;
             new_or := !new_or lor d;
             diff_or := !diff_or lor (d lxor old);
             Array.unsafe_set td (o + bi) d
           done);
        if !old_or = 0 && !new_or <> 0 then begin
          b.touched.(b.ntouched) <- m;
          b.ntouched <- b.ntouched + 1
        end;
        if !diff_or <> 0 then
          for e = fo_off.(m) to fo_off.(m + 1) - 1 do
            enqueue_batch b levels (Array.unsafe_get fo e)
          done
      end
    done;
    incr lvl
  done

(* --- Frames and change sweeps -----------------------------------------

   A trial that differs from an already-swept multiplet at one or two
   sites need not re-propagate the whole multiplet from the good
   machine.  [hold] sweeps its pins from the empty frame and keeps the
   resolved words and pins as the frame; a change sweep then seeds only
   the re-pinned sites, against the frame, and the drain reads the
   frame where it used to read the good words.  Exact: evaluation is
   lane-wise and the netlist feedback-free, so a net outside the
   changed sites' fanout cones keeps its base word, and each net inside
   is evaluated once, after its fanins, under the same pin rules
   (DESIGN.md §10). *)

type repin = Free | Stuck of bool | Flip | Held of int array

let frame_of b =
  match b.frame with
  | Some fr -> fr
  | None ->
    let nets = Netlist.num_nets b.net in
    let fr =
      {
        base = Array.copy b.good.words;
        bpin = Array.make nets 0;
        rows = Array.make (max 1 nets) 0;
        nrows = 0;
      }
    in
    b.frame <- Some fr;
    b.tref <- fr.base;
    fr

(* The change sweep proper, on a reset simulator and a non-empty change
   list. *)
let change b changes f =
  let nb = b.nb and base = b.tref and tg = b.good.words and masks = b.good.masks in
  let fi_off = Netlist.fanin_offsets b.net in
  let gated s = fi_off.(s) < fi_off.(s + 1) in
  (* A freed or flipped gate is re-evaluated by the drain from its
     fanins' frame words: it is enqueued itself, not seeded.  Every
     other re-pin (and a freed or flipped input, whose driven word is
     the good one) is seeded with its new word against the frame's. *)
  let redriven s = function Free | Flip -> gated s | Stuck _ | Held _ -> false in
  let seed_word s p bi =
    let o = (s * nb) + bi in
    let w =
      match p with
      | Stuck v -> if v then Logic.ones else 0
      | Held words -> words.(bi)
      | Free -> tg.(o)
      | Flip -> lnot tg.(o)
    in
    (w lxor base.(o)) land masks.(bi)
  in
  (* Active blocks: all of them when a site is re-evaluated (its change
     is not known before the drain), else those with a non-zero seed. *)
  let all = List.exists (fun (s, p) -> redriven s p) changes in
  b.nact <- 0;
  for bi = 0 to nb - 1 do
    if all || List.exists (fun (s, p) -> seed_word s p bi <> 0) changes then begin
      b.act.(b.nact) <- bi;
      b.nact <- b.nact + 1
    end
  done;
  let levels = Netlist.level_array b.net in
  List.iter
    (fun (s, p) ->
      let kind = match p with Free -> 0 | Stuck _ | Held _ -> 1 | Flip -> 2 in
      if redriven s p then begin
        b.pin.(s) <- kind;
        b.pinned.(b.npinned) <- s;
        b.npinned <- b.npinned + 1;
        enqueue_batch b levels s
      end
      else begin
        for bi = 0 to nb - 1 do
          b.acc.(bi) <- seed_word s p bi
        done;
        seed_batch b ~site:s ~pin_kind:kind b.acc
      end)
    changes;
  drain_batch b;
  (* Every net whose word changed is a seeded site or on the drain's
     touched stack (a re-evaluated site, pinned too, is on the latter
     when it changed): scan those for POs. *)
  let td = b.tdelta and po_of = b.po_of in
  let emit n =
    let oi = po_of.(n) in
    if oi >= 0 then begin
      let o = n * nb in
      for a = 0 to b.nact - 1 do
        let bi = b.act.(a) in
        let w = td.(o + bi) in
        if w <> 0 then f bi oi w
      done
    end
  in
  for i = 0 to b.ntouched - 1 do
    emit b.touched.(i)
  done;
  for i = 0 to b.npinned - 1 do
    let s = b.pinned.(i) in
    if b.pin.(s) = 1 || not (gated s) then emit s
  done

let sweep b changes f =
  reset_batch b;
  if changes <> [] then change b changes f

(* The swept machine becomes the frame: each row the sweep pinned or
   touched is written once (a re-evaluated pin is on both stacks), then
   the delta slab is cleared — relative to the frame, nothing differs
   yet — and [reset_batch] puts the base pins in force.  A free pin
   against the empty frame is no pin at all. *)
let hold b pins f =
  reset_batch b;
  clear_frame b;
  let pins = List.filter (fun (_, p) -> match p with Free -> false | _ -> true) pins in
  if pins <> [] then begin
    let fr = frame_of b in
    change b pins f;
    let nb = b.nb and td = b.tdelta and base = fr.base in
    let keep s =
      let o = s * nb in
      for bi = 0 to nb - 1 do
        base.(o + bi) <- base.(o + bi) lxor td.(o + bi)
      done;
      fr.rows.(fr.nrows) <- s;
      fr.nrows <- fr.nrows + 1
    in
    for i = 0 to b.npinned - 1 do
      let s = b.pinned.(i) in
      keep s;
      fr.bpin.(s) <- b.pin.(s)
    done;
    for i = 0 to b.ntouched - 1 do
      let s = b.touched.(i) in
      if b.pin.(s) = 0 then keep s
    done;
    reset_batch b
  end

(* Blocks outside the act list carry zero delta everywhere (a sweep
   writes zeros there and resets active blocks only), so one XOR reads
   any block. *)
let batch_value b ~net ~block =
  let o = (net * b.nb) + block in
  b.tref.(o) lxor b.tdelta.(o)

(* The drain's evaluator over every block: blocks outside the act list
   read their zero delta, so each word is the gate over the fanins'
   [batch_value]s. *)
let batch_driven b ~net =
  let g = b.net and nb = b.nb in
  let off = Netlist.fanin_offsets g in
  (* Inputs and constants have no fanin: their driven words are the
     good-machine ones. *)
  if off.(net) = off.(net + 1) then Array.sub b.good.words (net * nb) nb
  else begin
    eval_batch b (Netlist.kinds g) (Netlist.fanin_csr g) off net;
    Array.copy b.acc
  end

(* A stuck-at fault is the injection of its stuck word against the good
   one in every block, from the empty frame.  The deltas go through the
   simulator's own [acc] scratch, and the site's reachable POs are
   gathered once into [reached]: triples come out blocks ascending,
   then POs ascending, masked words only — the order of every
   [Sig_cache] entry.  Blocks where the seed delta is zero are not
   emitted: the whole cone carries zero there, so no PO word can
   differ. *)
let simulate_batch b ~n ~fault f =
  b.n_batches <- b.n_batches + 1;
  b.batch_faults <- n :: b.batch_faults;
  reset_batch b;
  clear_frame b;
  let nb = b.nb and tg = b.good.words and td = b.tdelta and pos = b.pos in
  let masks = b.good.masks in
  for i = 0 to n - 1 do
    let site, stuck = fault i in
    let stuck_word = if stuck then Logic.ones else 0 in
    let o = site * nb in
    reset_batch b;
    b.nact <- 0;
    for bi = 0 to nb - 1 do
      let d = (stuck_word lxor tg.(o + bi)) land masks.(bi) in
      b.acc.(bi) <- d;
      if d <> 0 then begin
        b.act.(b.nact) <- bi;
        b.nact <- b.nact + 1
      end
    done;
    (* Two screens, counted as such: a zero injected delta on every live
       pattern, and a site from which no PO is reachable, both make
       propagation pointless. *)
    if b.nact = 0 || Po_reach.num_reachable b.reach site = 0 then
      b.n_screened <- b.n_screened + 1
    else begin
      let nreached = Po_reach.reachable_into b.reach site b.reached in
      seed_batch b ~site ~pin_kind:1 b.acc;
      drain_batch b;
      for a = 0 to b.nact - 1 do
        let bi = Array.unsafe_get b.act a in
        let mask = Array.unsafe_get masks bi in
        for k = 0 to nreached - 1 do
          let oi = Array.unsafe_get b.reached k in
          let w = Array.unsafe_get td ((Array.unsafe_get pos oi * nb) + bi) land mask in
          if w <> 0 then f i bi oi w
        done
      done
    end
  done

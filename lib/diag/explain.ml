(* Counters published by [build_session]: candidate-pool sizes before
   and after the exactness-preserving prunes (DESIGN.md §9, §10); the
   fault-simulation work behind one matrix is published by
   [Session.simulate].  [explain.candidates] counts the matrix rows —
   the candidate axis after the activation screen and class
   collapse. *)
let c_builds = Obs.counter "explain.builds"
let c_candidates = Obs.counter "explain.candidates"
let c_observations = Obs.counter "explain.observations"
let c_blocks = Obs.counter "explain.blocks"
let c_pos_pruned = Obs.counter "po_reach.pos_pruned"
let c_screened = Obs.counter "prune.screened_inactive"
let c_class_merged = Obs.counter "prune.class_merged"

type t = {
  session : Session.t;
  net : Netlist.t;
  dlog : Datalog.t;
  candidates : Fault_list.fault array;
  num_seeded : int;
  row_of : int array; (* candidate -> matrix row (class-shared) *)
  observations : Datalog.observation array;
  failing : int array;
  obs_lo : int array; (* failing pattern -> its first observation; [nfp] -> nobs *)
  covers : Bitvec.t array; (* per row *)
  nblocks : int; (* the minor stride of [spurious] *)
  spurious : int array; (* row x block, [row * nblocks + bi]: OR of the spurious words *)
  fp_block : int array; (* failing pattern -> its block *)
  fp_bit : int array; (* failing pattern -> its bit in that block's words *)
  mispredict_fail : int array; (* per row *)
  mispredict_pass : int array;
}

let session t = t.session
let netlist t = t.net
let datalog t = t.dlog
let candidates t = t.candidates
let num_seeded t = t.num_seeded
let observations t = t.observations
let failing t = t.failing
let covers t c = t.covers.(t.row_of.(c))

(* Observations are ordered by pattern, so failing pattern [fp]'s are
   the index range [obs_lo.(fp), obs_lo.(fp + 1)) of every [covers]
   row: [matched] counts that range a word at a time, and [exact] asks
   whether it is full. *)
let matched t c fp = Bitvec.count_range (covers t c) t.obs_lo.(fp) t.obs_lo.(fp + 1)

let spurious_any t c fp =
  (t.spurious.((t.row_of.(c) * t.nblocks) + t.fp_block.(fp)) lsr t.fp_bit.(fp)) land 1 = 1

let exact t c fp =
  (not (spurious_any t c fp)) && matched t c fp = t.obs_lo.(fp + 1) - t.obs_lo.(fp)

let mispredict_fail t c = t.mispredict_fail.(t.row_of.(c))
let mispredict_pass t c = t.mispredict_pass.(t.row_of.(c))

(* Static fillers for the arrays [build_session] allocates and then
   fills: an array longer than 256 words made with a young first element
   forces a minor collection, one of these does not. *)
let no_fault = { Fault_list.site = 0; stuck = false }
let no_bits = Bitvec.create 0

(* Candidate seeds: both stuck polarities of every net in the union of
   the fan-in cones of the outputs that failed at least once.  Any single
   site whose error reached an observed-failing output lies in that
   union, so — unlike value-based critical path tracing, which can drop
   the true origin at reconvergent stems — the seed pool is structurally
   complete.  Simulation then prunes it: a candidate that covers no
   observation is never selected.

   One reverse BFS over the fan-in CSR, seeded with every failing PO at
   once, marks the union directly; each net enters the array stack at
   most once. *)
let seed_candidates net observations =
  let nnets = Netlist.num_nets net in
  let in_pool = Bytes.make nnets '\000' in
  let stack = Array.make (max 1 nnets) 0 in
  let top = ref 0 in
  let mark n =
    if Bytes.get in_pool n = '\000' then begin
      Bytes.set in_pool n '\001';
      stack.(!top) <- n;
      incr top
    end
  in
  let pos = Netlist.pos net in
  Array.iter (fun (ob : Datalog.observation) -> mark pos.(ob.po)) observations;
  let fanin = Netlist.fanin_csr net in
  let off = Netlist.fanin_offsets net in
  let marked = ref 0 in
  while !top > 0 do
    decr top;
    let n = stack.(!top) in
    incr marked;
    for i = off.(n) to off.(n + 1) - 1 do
      mark fanin.(i)
    done
  done;
  let pool = Array.make (2 * !marked) { Fault_list.site = 0; stuck = false } in
  let j = ref 0 in
  for n = 0 to nnets - 1 do
    if Bytes.get in_pool n <> '\000' then begin
      pool.(!j) <- { Fault_list.site = n; stuck = false };
      pool.(!j + 1) <- { site = n; stuck = true };
      j := !j + 2
    end
  done;
  pool

let build_session session dlog =
  Obs.phase "explain-build" @@ fun () ->
  (* Sub-phases (nested spans, see [Obs]): prep = seeding, screening,
     class collapse, lookup tables and the cache lookup; sim = the
     session's sweep over cache misses; replay = the append of the
     misses plus the matrix fill of every row.  On warm-cache rebuilds
     sim is empty and the split shows where the remaining time
     lives. *)
  let sp_prep = Obs.span_begin "explain.prep" in
  let net = Session.netlist session in
  let observations = Datalog.observations dlog in
  let seeded = seed_candidates net observations in
  let num_seeded = Array.length seeded in
  let nobs = Array.length observations in
  let failing = Array.of_list (Datalog.failing_patterns dlog) in
  let nfp = Array.length failing in
  let npos = Datalog.npos dlog in
  (* Good-machine words and pattern blocks come precomputed from the
     session; the session's cache instance is the per-problem memo. *)
  let blocks = Session.blocks session in
  let nblocks = Array.length blocks in
  let scache = Option.get (Session.cache session) in
  let good = Session.good session in
  (* Word-level observed-bit masks: the fill splits each diff word into
     matched ([w land obsmask]) and spurious
     ([w land fail_mask land lnot obsmask]) bits up front, so only
     matched bits are visited one at a time. *)
  let { Datalog.fail = fail_masks; obs = obsmask; _ } = Datalog.observed_words dlog blocks in
  let pass_masks =
    Array.mapi
      (fun bi (b : Pattern.block) -> lnot fail_masks.(bi) land Logic.mask_of_width b.width)
      blocks
  in
  (* Failing pattern -> (block, bit), merging the two ascending
     orders. *)
  let fp_block = Array.make nfp 0 and fp_bit = Array.make nfp 0 in
  (let b = ref 0 in
   Array.iteri
     (fun fp p ->
       while p >= blocks.(!b).Pattern.base + blocks.(!b).Pattern.width do
         incr b
       done;
       fp_block.(fp) <- !b;
       fp_bit.(fp) <- p - blocks.(!b).Pattern.base)
     failing);
  (* One pass over the observations, which come in pattern order, fills
     each failing pattern's range start [obs_lo] and the slot tables:
     the matched bits of (block [bi], PO [oi]) are the set bits of
     [om = obsmask.(s)], [s = bi * npos + oi], and the one of rank [j]
     among them is observation [slot_obs.(slot_base.(s) + j)].  A slot
     fills in bit order. *)
  let obs_lo = Array.make (nfp + 1) nobs in
  let nslots = nblocks * npos in
  let slot_base = Array.make (nslots + 1) 0 in
  for s = 0 to nslots - 1 do
    slot_base.(s + 1) <- slot_base.(s) + Bitvec.popcount_word obsmask.(s)
  done;
  let slot_obs = Array.make (max 1 nobs) 0 in
  let slot_next = Array.sub slot_base 0 (max 1 nslots) in
  let fp = ref (-1) in
  Array.iteri
    (fun i (ob : Datalog.observation) ->
      if !fp < 0 || failing.(!fp) <> ob.pattern then begin
        incr fp;
        obs_lo.(!fp) <- i
      end;
      let s = (fp_block.(!fp) * npos) + ob.po in
      slot_obs.(slot_next.(s)) <- i;
      slot_next.(s) <- slot_next.(s) + 1)
    observations;
  (* Activation screen (exactness-preserving, DESIGN.md §10): a stuck-at
     fault only injects an error on patterns where the good value
     differs from the stuck value.  A candidate inactive on every
     failing pattern flips no PO there, so it covers nothing, is exact
     nowhere, and can never enter a cover — drop it before simulating.
     (It may still be active on passing patterns, but its misprediction
     record is only ever read for moves with positive cover gain.) *)
  let candidates, screened =
    if num_seeded = 0 then (seeded, 0)
    else begin
      let keep = Array.make num_seeded false in
      let kept = ref 0 in
      for i = 0 to num_seeded - 1 do
        let f = seeded.(i) in
        let stuck_word = if f.Fault_list.stuck then -1 else 0 in
        let active = ref false in
        let bi = ref 0 in
        while (not !active) && !bi < nblocks do
          let g = Fault_sim.good_word good f.Fault_list.site !bi in
          if (g lxor stuck_word) land fail_masks.(!bi) <> 0 then
            active := true;
          incr bi
        done;
        if !active then begin
          keep.(i) <- true;
          incr kept
        end
      done;
      if !kept = num_seeded then (seeded, 0)
      else begin
        let out = Array.make !kept no_fault in
        let j = ref 0 in
        for i = 0 to num_seeded - 1 do
          if keep.(i) then begin
            out.(!j) <- seeded.(i);
            incr j
          end
        done;
        (out, num_seeded - !kept)
      end
    end
  in
  let ncand = Array.length candidates in
  (* Equivalence-class rows (DESIGN.md §10): structurally equivalent
     faults produce identical PO diffs on every pattern, so one matrix
     row serves the whole class.  Candidates stay individually listed —
     selection, pairing and reporting see the full pool — but their
     accessors indirect through [row_of], and only one member per class
     is simulated.  Rows are keyed by the class representative, read
     from the session's table, so the signature cache shares entries
     with the baselines, which look up representatives. *)
  let row_of = Array.make (max 1 ncand) 0 in
  let nrows, row_member, row_key =
    let row_of_key = Array.make (2 * Netlist.num_nets net) (-1) in
    let members = Array.make ncand 0 and keys = Array.make ncand 0 in
    let n = ref 0 in
    for c = 0 to ncand - 1 do
      let f = candidates.(c) in
      let rk = Session.representative_key session (Sig_cache.key ~site:f.site ~stuck:f.stuck) in
      let r = row_of_key.(rk) in
      if r >= 0 then row_of.(c) <- r
      else begin
        row_of_key.(rk) <- !n;
        row_of.(c) <- !n;
        members.(!n) <- c;
        keys.(!n) <- rk;
        incr n
      end
    done;
    (!n, Array.sub members 0 !n, Array.sub keys 0 !n)
  in
  let covers = Array.make nrows no_bits in
  for r = 0 to nrows - 1 do
    covers.(r) <- Bitvec.create nobs
  done;
  let spurious = Array.make (max 1 (nrows * nblocks)) 0 in
  let mispredict_fail = Array.make (max 1 nrows) 0 in
  let mispredict_pass = Array.make (max 1 nrows) 0 in
  (* One cache lookup for every row, on the calling domain (a
     deterministic hit pattern within one build).  Only the misses
     simulate. *)
  let miss = Sig_cache.missing scache row_key in
  Obs.span_end sp_prep;
  let sp_sim = Obs.span_begin "explain.sim" in
  let fresh = Session.simulate session (Array.map (fun r -> candidates.(row_member.(r))) miss) in
  Obs.span_end sp_sim;
  (* Append the fresh signatures as one batch, then fill every row the
     same way: decoded out of the arena into one reused buffer. *)
  let sp_replay = Obs.span_begin "explain.replay" in
  Sig_cache.store scache (Array.map (fun r -> row_key.(r)) miss) fresh;
  let buf = Sig_cache.buffer () in
  for r = 0 to nrows - 1 do
    Sig_cache.decode scache row_key.(r) buf;
    let d = buf.data and n = buf.len in
    let rc = covers.(r) and ro = r * nblocks in
    let mfail = ref 0 and mpass = ref 0 in
    (* Per-block accumulators, flushed once per block: the passing bits
       of [any] count the pass mispredictions, and [spur] — the OR of
       the block's spurious words — is stored as the row's word for the
       block. *)
    let prev = ref (-1) and any = ref 0 and spur = ref 0 in
    (* Unchecked reads only where the index is in range by construction:
       [i + 2 < n <= Array.length d], and a matched bit's rank is below
       its slot's size.  Indices read out of the arena ([bi], [oi]) stay
       checked. *)
    let i = ref 0 in
    while !i < n do
      let bi = Array.unsafe_get d !i
      and oi = Array.unsafe_get d (!i + 1)
      and w = Array.unsafe_get d (!i + 2) in
      if bi <> !prev then begin
        if !prev >= 0 then begin
          mpass := !mpass + Bitvec.popcount_word (!any land pass_masks.(!prev));
          spurious.(ro + !prev) <- !spur
        end;
        prev := bi;
        any := 0;
        spur := 0
      end;
      any := !any lor w;
      (* Failing-pattern bits, split matched/spurious by [om]: a matched
         bit's observation is its slot's entry at the bit's rank among
         [om]'s bits, the lowest bit isolated without a branch; the
         spurious bits are one popcount and one OR. *)
      let wf = w land fail_masks.(bi) in
      let s = (bi * npos) + oi in
      let om = obsmask.(s) in
      let wm = ref (wf land om) in
      if !wm <> 0 then begin
        let sb = slot_base.(s) in
        while !wm <> 0 do
          let low = !wm land - !wm in
          let rank = Bitvec.popcount_word (om land (low - 1)) in
          Bitvec.set rc (Array.unsafe_get slot_obs (sb + rank)) true;
          wm := !wm lxor low
        done
      end;
      let ws = wf land lnot om in
      mfail := !mfail + Bitvec.popcount_word ws;
      spur := !spur lor ws;
      i := !i + 3
    done;
    if !prev >= 0 then begin
      mpass := !mpass + Bitvec.popcount_word (!any land pass_masks.(!prev));
      spurious.(ro + !prev) <- !spur
    end;
    mispredict_fail.(r) <- !mfail;
    mispredict_pass.(r) <- !mpass
  done;
  Obs.span_end sp_replay;
  if Obs.enabled () then begin
    Obs.incr c_builds;
    Obs.add c_candidates nrows;
    Obs.add c_observations nobs;
    Obs.add c_blocks nblocks;
    Obs.add c_screened screened;
    Obs.add c_class_merged (ncand - nrows);
    (* PO scans the reachability screen saved: every simulated row-block
       pass visits only the site's reachable POs instead of all of
       them. *)
    let reach = Session.reach session in
    let pruned = ref 0 in
    Array.iter
      (fun r ->
        let f = candidates.(row_member.(r)) in
        pruned := !pruned + (npos - Po_reach.num_reachable reach f.Fault_list.site))
      miss;
    Obs.add c_pos_pruned (!pruned * nblocks)
  end;
  {
    session;
    net;
    dlog;
    candidates;
    num_seeded;
    row_of;
    observations;
    failing;
    obs_lo;
    covers;
    nblocks;
    spurious;
    fp_block;
    fp_bit;
    mispredict_fail;
    mispredict_pass;
  }

let find_candidate t f =
  let n = Array.length t.candidates in
  let rec bsearch lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      match Fault_list.compare_fault t.candidates.(mid) f with
      | 0 -> Some mid
      | c when c < 0 -> bsearch (mid + 1) hi
      | _ -> bsearch lo mid
  in
  bsearch 0 n

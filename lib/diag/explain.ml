(* Counters published by [build]: candidate-pool sizes before and after
   the exactness-preserving prunes, and the fault-simulation work behind
   one matrix, folded in from the per-chunk simulators after the
   parallel region (DESIGN.md §9, §10).  [explain.candidates] counts the
   matrix rows actually owned by the simulation plan — the candidate
   axis after the activation screen and class collapse. *)
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
  covers : Bitvec.t array; (* per row *)
  nfp : int; (* failing-pattern count, the minor stride below *)
  matched : int array; (* flat row x failing-pattern, [row * nfp + fp] *)
  spurious : int array;
  mispredict_pass : int array;
  nfail_pos : int array; (* failing-pattern -> #failing POs *)
}

let session t = t.session
let netlist t = t.net
let datalog t = t.dlog
let candidates t = t.candidates
let num_seeded t = t.num_seeded
let observations t = t.observations
let failing t = t.failing
let covers t c = t.covers.(t.row_of.(c))
let matched t c fp = t.matched.((t.row_of.(c) * t.nfp) + fp)
let spurious t c fp = t.spurious.((t.row_of.(c) * t.nfp) + fp)

let exact t c fp =
  let o = (t.row_of.(c) * t.nfp) + fp in
  t.matched.(o) = t.nfail_pos.(fp) && t.spurious.(o) = 0

let mispredict_fail t c =
  let o = t.row_of.(c) * t.nfp in
  let acc = ref 0 in
  for fp = 0 to t.nfp - 1 do
    acc := !acc + t.spurious.(o + fp)
  done;
  !acc

let mispredict_pass t c = t.mispredict_pass.(t.row_of.(c))

(* Candidate seeds: both stuck polarities of every net in the union of
   the fan-in cones of the outputs that failed at least once.  Any single
   site whose error reached an observed-failing output lies in that
   union, so — unlike value-based critical path tracing, which can drop
   the true origin at reconvergent stems — the seed pool is structurally
   complete.  Simulation then prunes it: a candidate that covers no
   observation is never selected.

   One reverse BFS over the fan-in CSR, seeded with every failing PO at
   once, marks the union directly — the old per-output
   [Netlist.fanin_cone] calls each allocated and swept a full bool
   array, O(failing POs x nets) on wide datalogs. *)
let seed_candidates net dlog =
  let nnets = Netlist.num_nets net in
  let in_pool = Array.make nnets false in
  let stack = ref [] in
  let pos = Netlist.pos net in
  Array.iter
    (fun (ob : Datalog.observation) ->
      let n = pos.(ob.po) in
      if not in_pool.(n) then begin
        in_pool.(n) <- true;
        stack := n :: !stack
      end)
    (Datalog.observations dlog);
  let fanin = Netlist.fanin_csr net in
  let off = Netlist.fanin_offsets net in
  let rec drain () =
    match !stack with
    | [] -> ()
    | n :: rest ->
      stack := rest;
      for i = off.(n) to off.(n + 1) - 1 do
        let a = fanin.(i) in
        if not in_pool.(a) then begin
          in_pool.(a) <- true;
          stack := a :: !stack
        end
      done;
      drain ()
  in
  drain ();
  let l = ref [] in
  for n = nnets - 1 downto 0 do
    if in_pool.(n) then
      l := { Fault_list.site = n; stuck = false } :: { site = n; stuck = true } :: !l
  done;
  Array.of_list !l

(* Grow-by-doubling int buffer for recording signature triples inside
   the parallel region.  Recording allocates (unlike the matrix-filling
   path), but only on cache misses, amortised by doubling — the price of
   making the simulated block reusable by every later phase. *)
type tbuf = { mutable buf : int array; mutable len : int }

let tbuf_push b v =
  if b.len = Array.length b.buf then begin
    let bigger = Array.make (2 * max 64 b.len) 0 in
    Array.blit b.buf 0 bigger 0 b.len;
    b.buf <- bigger
  end;
  b.buf.(b.len) <- v;
  b.len <- b.len + 1

let build_session session dlog =
  Obs.phase "explain-build" @@ fun () ->
  (* Sub-phases (nested spans, see [Obs]): prep = seeding, screening,
     class collapse, lookup tables and the chunk plan; sim = the
     parallel region over cache misses; replay = signature store plus
     warm-row matrix fill.  On warm-cache rebuilds sim is empty and the
     split shows where the remaining time lives. *)
  let sp_prep = Obs.span_begin "explain.prep" in
  let net = Session.netlist session in
  let domains = (Session.config session).Session.domains in
  let seeded = seed_candidates net dlog in
  let num_seeded = Array.length seeded in
  let observations = Datalog.observations dlog in
  let nobs = Array.length observations in
  let failing = Array.of_list (Datalog.failing_patterns dlog) in
  let nfp = Array.length failing in
  let npos = Datalog.npos dlog in
  (* Direct-indexed lookup tables — the inner loop below runs once per
     error *bit*, so hash probes there dominated the whole build. *)
  let fp_of_pattern = Array.make (max 1 (Datalog.npatterns dlog)) (-1) in
  Array.iteri (fun i p -> fp_of_pattern.(p) <- i) failing;
  let obs_of = Array.make (max 1 (nfp * npos)) (-1) in
  Array.iteri
    (fun i (ob : Datalog.observation) ->
      obs_of.((fp_of_pattern.(ob.pattern) * npos) + ob.po) <- i)
    observations;
  let nfail_pos = Array.map (fun p -> List.length (Datalog.failing_pos dlog p)) failing in
  (* Good-machine words, pattern blocks and the PO-reachability screen
     all come precomputed from the session, shared read-only by all
     workers; the session's cache instance is the shared per-problem
     memo. *)
  let blocks = Session.blocks session in
  let nblocks = Array.length blocks in
  let scache = Option.get (Session.cache session) in
  let goods = Session.goods session in
  let fail_masks =
    Array.map
      (fun (block : Pattern.block) ->
        let m = ref 0 in
        for k = 0 to block.width - 1 do
          if fp_of_pattern.(block.base + k) >= 0 then m := !m lor (1 lsl k)
        done;
      !m)
      blocks
  in
  (* Word-level observed-bit masks, one per (block, PO): bit [k] is set
     iff pattern [base + k] is failing *and* that (pattern, po) pair was
     observed failing.  The batched matrix fill and the cache replay
     split each diff word into matched ([w land obsmask]) and spurious
     ([w land fail_mask land lnot obsmask]) bits up front, so the
     per-bit loop carries no observation lookup or branch. *)
  let bi_of_pattern = Array.make (max 1 (Datalog.npatterns dlog)) 0 in
  Array.iteri
    (fun bi (block : Pattern.block) ->
      for k = 0 to block.width - 1 do
        bi_of_pattern.(block.base + k) <- bi
      done)
    blocks;
  let obsmask = Array.make (max 1 (nblocks * npos)) 0 in
  Array.iter
    (fun (ob : Datalog.observation) ->
      let bi = bi_of_pattern.(ob.pattern) in
      let k = ob.pattern - blocks.(bi).Pattern.base in
      obsmask.((bi * npos) + ob.po) <- obsmask.((bi * npos) + ob.po) lor (1 lsl k))
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
          if (goods.(!bi).(f.Fault_list.site) lxor stuck_word) land fail_masks.(!bi) <> 0
          then active := true;
          incr bi
        done;
        if !active then begin
          keep.(i) <- true;
          incr kept
        end
      done;
      if !kept = num_seeded then (seeded, 0)
      else begin
        let out = Array.make !kept seeded.(0) in
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
     is simulated.  Rows are keyed by the class representative so the
     signature cache shares entries with the baselines, which iterate
     representatives. *)
  let row_of = Array.make (max 1 ncand) 0 in
  let nrows, row_member, row_key =
    let collapsed = Fault_list.collapse net in
    let row_of_key = Hashtbl.create (2 * ncand) in
    let members = ref [] and keys = ref [] in
    let n = ref 0 in
    for c = 0 to ncand - 1 do
      let rep = Fault_list.representative_of collapsed candidates.(c) in
      let rk = Sig_cache.key ~site:rep.Fault_list.site ~stuck:rep.Fault_list.stuck in
      match Hashtbl.find_opt row_of_key rk with
      | Some r -> row_of.(c) <- r
      | None ->
        Hashtbl.add row_of_key rk !n;
        row_of.(c) <- !n;
        members := c :: !members;
        keys := rk :: !keys;
        incr n
    done;
    (!n, Array.of_list (List.rev !members), Array.of_list (List.rev !keys))
  in
  let covers = Array.init nrows (fun _ -> Bitvec.create nobs) in
  let matched = Array.make (max 1 (nrows * nfp)) 0 in
  let spurious = Array.make (max 1 (nrows * nfp)) 0 in
  let mispredict_pass = Array.make (max 1 nrows) 0 in
  (* Cache probe, sequential on the calling domain (deterministic hit
     pattern and eviction order within one build).  Rows found warm are
     replayed after the parallel region; only the misses simulate.
     Frozen rows are only flagged here — the replay streams them out of
     the packed arena ([Sig_cache.iter_frozen]) without materialising
     an array per row; mutable-tier rows keep the shared boxed array so
     a FIFO eviction between probe and replay cannot lose them. *)
  let hit = Array.make (max 1 nrows) Sig_cache.Cold in
  let miss = ref [] in
  let nmiss = ref 0 in
  for r = nrows - 1 downto 0 do
    match Sig_cache.probe scache row_key.(r) with
    | Sig_cache.Cold ->
      miss := r :: !miss;
      incr nmiss
    | (Sig_cache.Frozen | Sig_cache.Warm _) as h -> hit.(r) <- h
  done;
  let miss = Array.of_list !miss in
  let reach = Session.reach session in
  (* Cost-weighted chunking over the *miss* rows: a row's simulation
     cost scales with its fanout cone, proxied by reachable-PO count
     times remaining depth.  Uniform index ranges pack all the cheap
     near-output seeds into the last chunk and stall the other domains;
     and when the cache leaves only a light residue, the minimum chunk
     weight collapses the plan so a handful of misses never pays domain
     spawns. *)
  let depth = Netlist.depth net in
  let levels = Netlist.level_array net in
  let weight_of r =
    let f = candidates.(row_member.(r)) in
    (1 + Po_reach.num_reachable reach f.Fault_list.site) * (1 + depth - levels.(f.Fault_list.site))
  in
  let weights = Array.map weight_of miss in
  let min_chunk_weight =
    if !nmiss = 0 then 0
    else 16 * (Array.fold_left ( + ) 0 weights / !nmiss)
  in
  (* Candidate-partitioned fault simulation: chunks write only their
     own rows of the accumulators, so domains share nothing mutable and
     the result is bit-identical for every domain count.  Scratch —
     [Fault_sim.t], the PPSFP batch slabs, the triple buffers — is
     allocated on the calling domain *before* the parallel region and
     keyed on the {e drain slot} (one per participating domain), not on
     the chunk: the batch's transposed delta slab is O(nets x blocks)
     and a per-chunk copy would not scale to the 50k tiers.  Chunk
     bodies therefore key result writes on the row/miss index only.

     A chunk is a (fault-batch x block-set) tile:
     [Fault_sim.simulate_batch] sweeps each fault's cone once carrying a
     delta word per block, emitting every fault's triples in the
     canonical per-block order of [Fault_sim.iter_po_diffs] — the order
     of every [Sig_cache] entry.  The tile cap bounds the fault axis so
     per-batch working sets stay cache-sized (and so single-domain runs
     still tile). *)
  let batch_tile = 512 in
  let plan =
    Parallel.weighted_chunks ?domains ~min_chunk_weight ~max_chunk_size:batch_tile ~weights ()
  in
  let nslots = Parallel.plan_slots ?domains plan in
  let sims = Array.init nslots (fun _ -> Fault_sim.create ~reach net) in
  let batches =
    if nslots = 0 then [||]
    else begin
      let b0 = Fault_sim.prepare_batch sims.(0) ~blocks ~goods in
      Array.init nslots (fun i ->
          if i = 0 then b0 else Fault_sim.prepare_batch ~share:b0 sims.(i) ~blocks ~goods)
    end
  in
  let tbufs = Array.init nslots (fun _ -> { buf = Array.make 4096 0; len = 0 }) in
  (* Per-miss triple extents into the owning slot's buffer; disjoint
     writes keyed on the miss index (the slot is recorded per miss so
     the sequential store below finds the right buffer). *)
  let row_start = Array.make (max 1 !nmiss) 0 in
  let row_len = Array.make (max 1 !nmiss) 0 in
  let row_buf = Array.make (max 1 !nmiss) 0 in
  Obs.span_end sp_prep;
  let sp_sim = Obs.span_begin "explain.sim" in
  Parallel.run_plan_slotted ?domains plan (fun ~slot _ci lo hi ->
      let tbuf = tbufs.(slot) in
      (* One [simulate_batch] call sweeps every fault of the chunk over
         all blocks; triples arrive fault-major then block-major, so row
         and block boundaries are detected on the fly.  Rows whose every
         block screens produce no triples and keep their zero-length
         extent. *)
      let b = batches.(slot) in
      let cur_base = ref 0 in
      let cur_bi = ref (-1) in
      let any = ref 0 in
      let cur_covers = ref covers.(miss.(lo)) in
      let cur_ro = ref (miss.(lo) * nfp) in
      let cur_mi = ref (-1) in
      let cur_r = ref 0 in
      let flush_block () =
        if !cur_bi >= 0 then begin
          let pass_pred =
            !any
            land lnot fail_masks.(!cur_bi)
            land Logic.mask_of_width blocks.(!cur_bi).Pattern.width
          in
          mispredict_pass.(!cur_r) <- mispredict_pass.(!cur_r) + Logic.popcount pass_pred
        end;
        any := 0;
        cur_bi := -1
      in
      let close_row () =
        if !cur_mi >= 0 then begin
          flush_block ();
          row_len.(!cur_mi) <- tbuf.len - row_start.(!cur_mi)
        end;
        cur_mi := -1
      in
      Fault_sim.simulate_batch b ~n:(hi - lo)
        ~fault:(fun j ->
          let f = candidates.(row_member.(miss.(lo + j))) in
          (f.Fault_list.site, f.Fault_list.stuck))
        (fun j bi oi w ->
          let mi = lo + j in
          if mi <> !cur_mi then begin
            close_row ();
            let r = miss.(mi) in
            cur_mi := mi;
            cur_r := r;
            row_start.(mi) <- tbuf.len;
            row_buf.(mi) <- slot;
            cur_covers := covers.(r);
            cur_ro := r * nfp
          end;
          if bi <> !cur_bi then begin
            flush_block ();
            cur_bi := bi;
            cur_base := blocks.(bi).Pattern.base
          end;
          any := !any lor w;
          tbuf_push tbuf bi;
          tbuf_push tbuf oi;
          tbuf_push tbuf w;
          (* Failing-pattern bits only (passing bits only feed [any],
             the pass-misprediction count), split matched/spurious by
             [obsmask] so each bit is a lookup and an increment, nothing
             more. *)
          let wf = w land fail_masks.(bi) in
          let om = obsmask.((bi * npos) + oi) in
          let wm = ref (wf land om) in
          while !wm <> 0 do
            let k = Bitvec.ctz_word !wm in
            wm := !wm land (!wm - 1);
            let fp = fp_of_pattern.(!cur_base + k) in
            Bitvec.set !cur_covers obs_of.((fp * npos) + oi) true;
            matched.(!cur_ro + fp) <- matched.(!cur_ro + fp) + 1
          done;
          let ws = ref (wf land lnot om) in
          while !ws <> 0 do
            let k = Bitvec.ctz_word !ws in
            ws := !ws land (!ws - 1);
            let fp = fp_of_pattern.(!cur_base + k) in
            spurious.(!cur_ro + fp) <- spurious.(!cur_ro + fp) + 1
          done);
      close_row ());
  Obs.span_end sp_sim;
  (* Store the fresh signatures (sequential: one deterministic insertion
     order per build), then replay the warm rows into the matrices. *)
  let sp_replay = Obs.span_begin "explain.replay" in
  for mi = 0 to !nmiss - 1 do
    Sig_cache.store scache row_key.(miss.(mi))
      (Array.sub tbufs.(row_buf.(mi)).buf row_start.(mi) row_len.(mi))
  done;
  for r = 0 to nrows - 1 do
    match hit.(r) with
    | Sig_cache.Cold -> ()
    | (Sig_cache.Frozen | Sig_cache.Warm _) as h ->
      let rc = covers.(r) in
      let ro = r * nfp in
      let prev_bi = ref (-1) in
      let any = ref 0 in
      let flush () =
        if !prev_bi >= 0 then begin
          let block = blocks.(!prev_bi) in
          let pass_pred =
            !any land lnot fail_masks.(!prev_bi) land Logic.mask_of_width block.width
          in
          mispredict_pass.(r) <- mispredict_pass.(r) + Logic.popcount pass_pred
        end;
        any := 0
      in
      let visit bi oi d =
        if bi <> !prev_bi then begin
          flush ();
          prev_bi := bi
        end;
        any := !any lor d;
        let base = blocks.(bi).Pattern.base in
        let wf = d land fail_masks.(bi) in
        let om = obsmask.((bi * npos) + oi) in
        let wm = ref (wf land om) in
        while !wm <> 0 do
          let k = Bitvec.ctz_word !wm in
          wm := !wm land (!wm - 1);
          let fp = fp_of_pattern.(base + k) in
          Bitvec.set rc obs_of.((fp * npos) + oi) true;
          matched.(ro + fp) <- matched.(ro + fp) + 1
        done;
        let ws = ref (wf land lnot om) in
        while !ws <> 0 do
          let k = Bitvec.ctz_word !ws in
          ws := !ws land (!ws - 1);
          let fp = fp_of_pattern.(base + k) in
          spurious.(ro + fp) <- spurious.(ro + fp) + 1
        done
      in
      (match h with
      | Sig_cache.Warm triples ->
        let i = ref 0 in
        let n = Array.length triples in
        while !i < n do
          visit triples.(!i) triples.(!i + 1) triples.(!i + 2);
          i := !i + 3
        done
      | Sig_cache.Frozen -> Sig_cache.iter_frozen scache row_key.(r) visit
      | Sig_cache.Cold -> ());
      flush ()
  done;
  Obs.span_end sp_replay;
  if Obs.enabled () then begin
    Obs.incr c_builds;
    Obs.add c_candidates nrows;
    Obs.add c_observations nobs;
    Obs.add c_blocks nblocks;
    Obs.add c_screened screened;
    Obs.add c_class_merged (ncand - nrows);
    Array.iter Fault_sim.publish_stats sims;
    Array.iter Fault_sim.publish_batch_stats batches;
    (* PO scans the reachability screen saved: every simulated row-block
       pass visits only the site's reachable POs instead of all of
       them. *)
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
    covers;
    nfp;
    matched;
    spurious;
    mispredict_pass;
    nfail_pos;
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

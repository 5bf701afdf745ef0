(* The session: one warm engine context per (netlist, pattern set)
   problem, threaded through every diagnosis phase.

   Before this module existed, the engine choices lived in
   process-global [Atomic] switches and each phase re-derived the shared
   read-only state (good-machine words, PO reachability) on its own.
   That shape cannot serve volume diagnosis — thousands of datalogs
   against one design, one diagnosis per domain — where the per-problem
   state must be computed once and shared, and two concurrent diagnoses
   must be able to run under different configurations without racing on
   globals.  The session holds the problem and nothing else: each
   diagnosis carries its own options ([Noassume.config]), and the
   kernels' width is [Parallel]'s.  A [t] is created once, is
   immutable, and is safe to share across domains: every field is
   either frozen after [create] or internally synchronised
   ([Sig_cache]); the good machine is read by every simulator it hands
   out and written by none.  The session owns its signature cache
   outright — it builds it in [create] and nothing else holds it — so a
   dropped session frees its cache. *)

type t = {
  net : Netlist.t;
  pats : Pattern.t;
  reach : Po_reach.t;
  rep_keys : int array; (* fault key -> its class representative's key; never written *)
  blocks : Pattern.block array;
  good : Fault_sim.good; (* read by every simulator, never written *)
  cache : Sig_cache.t;
}

let netlist t = t.net
let patterns t = t.pats
let blocks t = t.blocks
let good t = t.good
let reach t = t.reach
let cache t = Some t.cache
let representative_key t k = t.rep_keys.(k)

let simulator t = Fault_sim.create ~reach:t.reach t.net t.good

let representatives t =
  let reps = ref [] in
  for k = Array.length t.rep_keys - 1 downto 0 do
    if t.rep_keys.(k) = k then reps := { Fault_list.site = k / 2; stuck = k land 1 = 1 } :: !reps
  done;
  Array.of_list !reps

(* --- The one signature sweep ----------------------------------------- *)

(* Every cold signature in the engine comes from [simulate]: the
   explanation matrix's misses, the baselines' misses and the
   whole-pool prewarm.  Triples arrive blocks ascending, then each
   fault's reachable POs ascending, the order every cache entry
   uses. *)

(* Tile cap on the fault axis: bounds the per-batch working set so slabs
   stay cache-sized, and gives single-domain runs the same tiles. *)
let batch_tile = 512

let tbuf_push (b : Sig_cache.buf) v =
  if b.len = Array.length b.data then begin
    let bigger = Array.make (2 * max 64 b.len) 0 in
    Array.blit b.data 0 bigger 0 b.len;
    b.data <- bigger
  end;
  b.data.(b.len) <- v;
  b.len <- b.len + 1

(* One tile: faults [lo, hi) of [faults] through one [simulate_batch]
   call, each fault's triples handed to [emit] by fault index.  Triples
   arrive fault-major, so a fault's run ends where the next begins;
   [starts] holds at least [hi - lo] slots.  A fault whose every block
   screens emits nothing and keeps its empty entry. *)
let sweep_tile b (tb : Sig_cache.buf) starts (faults : Fault_list.fault array) ~lo ~hi emit =
  tb.len <- 0;
  let cur = ref (-1) in
  let close j =
    if j >= 0 then emit (lo + j) (Array.sub tb.data starts.(j) (tb.len - starts.(j)))
  in
  Fault_sim.simulate_batch b ~n:(hi - lo)
    ~fault:(fun j ->
      let f = faults.(lo + j) in
      (f.Fault_list.site, f.Fault_list.stuck))
    (fun j bi oi w ->
      if j <> !cur then begin
        close !cur;
        cur := j;
        starts.(j) <- tb.len
      end;
      tbuf_push tb bi;
      tbuf_push tb oi;
      tbuf_push tb w);
  close !cur

(* Cost-weighted chunking: a fault's simulation cost scales with its
   fanout cone, proxied by reachable-PO count times remaining depth.
   Uniform index ranges would pack all the cheap near-output faults into
   the last chunk and stall the other domains; the minimum chunk weight
   collapses the plan when only a light residue is left, so a handful
   of faults never pays domain spawns.  Scratch — a [Fault_sim.t] with
   its O(nets x blocks) delta slab, the triple buffers — is allocated
   before the parallel region, one per drain slot, never per chunk.
   Results are written per fault index, so the output is identical for
   every domain count. *)
let simulate t (faults : Fault_list.fault array) =
  let n = Array.length faults in
  let out = Array.make n [||] in
  if n > 0 then begin
    let depth = Netlist.depth t.net in
    let levels = Netlist.level_array t.net in
    let weights =
      Array.map
        (fun f ->
          let site = f.Fault_list.site in
          (1 + Po_reach.num_reachable t.reach site) * (1 + depth - levels.(site)))
        faults
    in
    let min_chunk_weight = 16 * (Array.fold_left ( + ) 0 weights / n) in
    let plan =
      Parallel.weighted_chunks ~min_chunk_weight ~max_chunk_size:batch_tile ~weights ()
    in
    let nslots = Parallel.plan_slots plan in
    let sims = Array.init nslots (fun _ -> simulator t) in
    let tbs = Array.init nslots (fun _ -> { Sig_cache.data = Array.make 4096 0; len = 0 }) in
    let startss = Array.init nslots (fun _ -> Array.make batch_tile 0) in
    Parallel.run_plan_slotted plan (fun ~slot _ci lo hi ->
        sweep_tile sims.(slot) tbs.(slot) startss.(slot) faults ~lo ~hi (fun i triples ->
            out.(i) <- triples));
    Array.iter Fault_sim.publish_stats sims
  end;
  out

let key_of (f : Fault_list.fault) = Sig_cache.key ~site:f.site ~stuck:f.stuck

(* The baselines' cold path ([Single_diag], [Dict_diag]): look the
   batch up, simulate the misses, store them back as one batch, then
   decode every row out of the arena. *)
let fault_triples t (faults : Fault_list.fault array) =
  let keys = Array.map key_of faults in
  let miss = Sig_cache.missing t.cache keys in
  let fresh = simulate t (Array.map (fun i -> faults.(i)) miss) in
  Sig_cache.store t.cache (Array.map (fun i -> keys.(i)) miss) fresh;
  let b = Sig_cache.buffer () in
  Array.map
    (fun k ->
      Sig_cache.decode t.cache k b;
      Array.sub b.data 0 b.len)
    keys

(* --- Whole-pool prewarm --------------------------------------------- *)

let c_prewarm_faults = Obs.counter "prewarm.faults"

(* One sweep over the pool keys the arena still lacks, stored as one
   batch: after this, every signature a diagnosis can ask for is an
   arena read, and the per-die work of a volume run reduces to
   covering.  The pool is the class representatives, the keys the
   phases actually look up (Explain rows and both baselines key by
   [representative_key]).  Presence is tested with [Sig_cache.mem], not
   [missing], so the hit/miss counters keep reflecting only lookups a
   diagnosis made. *)
let prewarm t =
  let c = t.cache in
  Obs.phase "prewarm" (fun () ->
      let cold =
        Array.to_seq (representatives t)
        |> Seq.filter (fun f -> not (Sig_cache.mem c (key_of f)))
        |> Array.of_seq
      in
      Sig_cache.store c (Array.map key_of cold) (simulate t cold);
      let n = Array.length cold in
      if Obs.enabled () then Obs.add c_prewarm_faults n;
      n)

(* The costly steps of a create are phases of their own ([po_reach],
   [session.goods], [session.collapse]), so a run report shows how the
   caller's [session.create] splits.  The representative table is the
   whole class collapse flattened once
   ([Fault_list.representative_indices]): every diagnosis reads it
   instead of collapsing the netlist again, and no reader writes it,
   where the union-find compresses paths as it reads. *)
let create net pats =
  let reach = Obs.phase "po_reach" (fun () -> Po_reach.compute net) in
  let blocks = Array.of_list (Pattern.blocks pats) in
  let good = Obs.phase "session.goods" (fun () -> Fault_sim.good net blocks) in
  let rep_keys =
    Obs.phase "session.collapse" (fun () ->
        Fault_list.representative_indices (Fault_list.collapse net))
  in
  { net; pats; reach; rep_keys; blocks; good; cache = Sig_cache.create net pats }

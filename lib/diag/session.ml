(* The session: one warm engine context per (netlist, pattern set)
   problem, threaded through every diagnosis phase.

   Before this module existed, the engine choices lived in
   process-global [Atomic] switches and each phase re-derived the shared
   read-only state (good-machine words, PO reachability) on its own.
   That shape cannot serve volume diagnosis — thousands of datalogs
   against one design, one diagnosis per domain — where the per-problem
   state must be computed once and shared, and two concurrent diagnoses
   must be able to run under different configurations without racing on
   globals.  A [t] is created once, is immutable, and is safe to share
   across domains: every field is either frozen after [create] or
   internally synchronised ([Sig_cache]).  The session owns its
   signature cache outright — it builds it in [create] and nothing else
   holds it — so a dropped session frees its cache. *)

type cover = Greedy | Exact

(* Node budget for the exact backend's whole implicit-hitting-set loop
   (all branch-and-bound sub-solves summed).  Generous: the suite
   circuits complete in well under 10^4 nodes; exhaustion on a
   pathological datalog falls back to the greedy cover and is surfaced
   (counter [cover.budget_fallbacks], [Run_report] meta). *)
let default_cover_budget = 2_000_000

type config = {
  domains : int option;  (* kernel fan-out; [None] = Parallel default *)
  prewarm : bool;  (* whole-pool sweep into the arena at create *)
  cover : cover;  (* covering backend: greedy (paper) or exact (minimal) *)
  cover_budget : int;  (* exact backend's hitting-set node budget *)
  store_dir : string option;  (* snapshot dir: load instead of sweeping, save after *)
}

let default_config =
  {
    domains = None;
    prewarm = false;
    cover = Greedy;
    cover_budget = default_cover_budget;
    store_dir = None;
  }

type t = {
  net : Netlist.t;
  pats : Pattern.t;
  reach : Po_reach.t;
  cache : Sig_cache.t;
  sink : Obs.sink option;
  config : config;
}

let netlist t = t.net
let patterns t = t.pats
let blocks t = Sig_cache.blocks t.cache
let goods t = Sig_cache.goods t.cache
let reach t = t.reach
let cache t = Some t.cache
let sink t = t.sink
let config t = t.config

let in_sink sink f = match sink with None -> f () | Some sk -> Obs.with_sink sk f
let with_sink t f = in_sink t.sink f

(* --- The one signature sweep ----------------------------------------- *)

(* Every cold signature in the engine comes from [simulate]: the
   explanation matrix's misses, the baselines' misses and the
   whole-pool prewarm.  Triples arrive in the canonical per-block order
   of [Fault_sim.iter_po_diffs], the order every cache entry uses. *)

(* Tile cap on the fault axis: bounds the per-batch working set so slabs
   stay cache-sized, and gives single-domain runs the same tiles. *)
let batch_tile = 512

type tbuf = { mutable buf : int array; mutable len : int }

let tbuf_push b v =
  if b.len = Array.length b.buf then begin
    let bigger = Array.make (2 * max 64 b.len) 0 in
    Array.blit b.buf 0 bigger 0 b.len;
    b.buf <- bigger
  end;
  b.buf.(b.len) <- v;
  b.len <- b.len + 1

(* One tile: faults [lo, hi) of [faults] through one [simulate_batch]
   call, each fault's triples handed to [emit] by fault index.  Triples
   arrive fault-major, so a fault's run ends where the next begins;
   [starts] holds at least [hi - lo] slots.  A fault whose every block
   screens emits nothing and keeps its empty entry. *)
let sweep_tile b tb starts (faults : Fault_list.fault array) ~lo ~hi emit =
  tb.len <- 0;
  let cur = ref (-1) in
  let close j =
    if j >= 0 then emit (lo + j) (Array.sub tb.buf starts.(j) (tb.len - starts.(j)))
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
   of faults never pays domain spawns.  Scratch — [Fault_sim.t], the
   PPSFP batch slabs (the transposed delta slab is O(nets x blocks)),
   the triple buffers — is allocated before the parallel region, one per
   drain slot, never per chunk.  Results are written per fault index,
   so the output is identical for every domain count. *)
let simulate t (faults : Fault_list.fault array) =
  let n = Array.length faults in
  let out = Array.make n [||] in
  if n > 0 then begin
    let domains = t.config.domains in
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
      Parallel.weighted_chunks ?domains ~min_chunk_weight ~max_chunk_size:batch_tile ~weights ()
    in
    let nslots = Parallel.plan_slots ?domains plan in
    let sims = Array.init nslots (fun _ -> Fault_sim.create ~reach:t.reach t.net) in
    let blocks = blocks t and goods = goods t in
    let b0 = Fault_sim.prepare_batch sims.(0) ~blocks ~goods in
    let batches =
      Array.init nslots (fun s ->
          if s = 0 then b0 else Fault_sim.prepare_batch ~share:b0 sims.(s) ~blocks ~goods)
    in
    let tbs = Array.init nslots (fun _ -> { buf = Array.make 4096 0; len = 0 }) in
    let startss = Array.init nslots (fun _ -> Array.make batch_tile 0) in
    Parallel.run_plan_slotted ?domains plan (fun ~slot _ci lo hi ->
        sweep_tile batches.(slot) tbs.(slot) startss.(slot) faults ~lo ~hi (fun i triples ->
            out.(i) <- triples));
    if Obs.enabled () then begin
      Array.iter Fault_sim.publish_batch_stats batches;
      Array.iter Fault_sim.publish_stats sims
    end
  end;
  out

let key_of (f : Fault_list.fault) = Sig_cache.key ~site:f.site ~stuck:f.stuck

(* The baselines' cold path ([Single_diag], [Dict_diag]): probe,
   simulate the misses, store them back as one batch. *)
let fault_triples t (faults : Fault_list.fault array) =
  let out = Array.map (fun f -> Sig_cache.find t.cache (key_of f)) faults in
  let miss =
    List.filter (fun i -> Option.is_none out.(i)) (List.init (Array.length faults) Fun.id)
    |> Array.of_list
  in
  let fresh = simulate t (Array.map (fun i -> faults.(i)) miss) in
  Sig_cache.store t.cache (Array.map (fun i -> key_of faults.(i)) miss) fresh;
  Array.iteri (fun j i -> out.(i) <- Some fresh.(j)) miss;
  Array.map Option.get out

(* --- Whole-pool prewarm --------------------------------------------- *)

let c_prewarm_faults = Obs.counter "prewarm.faults"

(* One sweep over the pool keys the arena still lacks, stored as one
   batch: after this, every signature a diagnosis can ask for is an
   arena read, and the per-die work of a volume run reduces to
   covering.  The pool is the class representatives, the keys the
   phases actually probe (Explain rows and both baselines key by
   [Fault_list.representative_of]).  Presence is tested with
   [Sig_cache.mem], not [probe], so the hit/miss counters keep
   reflecting only probes a diagnosis made. *)
let prewarm t =
  let c = t.cache in
  Obs.phase "prewarm" (fun () ->
      let pool = Fault_list.representatives (Fault_list.collapse t.net) in
      let cold =
        Array.of_list (List.filter (fun f -> not (Sig_cache.mem c (key_of f))) pool)
      in
      Sig_cache.store c (Array.map key_of cold) (simulate t cold);
      let n = Array.length cold in
      if Obs.enabled () then Obs.add c_prewarm_faults n;
      n)

(* The costly steps of a create are phases of their own ([po_reach],
   [store.load], [prewarm]), so a run report shows how the caller's
   [session.create] splits. *)
let create ?(config = default_config) ?sink net pats =
  let t =
    {
      net;
      pats;
      reach =
        in_sink sink (fun () -> Obs.phase "po_reach" (fun () -> Po_reach.compute net));
      cache = Sig_cache.create net pats;
      sink;
      config;
    }
  in
  if config.prewarm then
    ignore
      (with_sink t (fun () ->
           (* Load-or-sweep: a valid snapshot publishes the whole arena
              with zero simulation; anything else (no dir, no file, or a
              rejected file — [store.rejects]) falls through to the live
              sweep, which is then saved so the next process loads. *)
           match config.store_dir with
           | Some dir
             when Obs.phase "store.load" (fun () -> Sig_cache.load_frozen ~dir t.cache) ->
             0
           | Some dir ->
             let n = prewarm t in
             ignore (Sig_cache.save_frozen ~dir t.cache : bool);
             n
           | None -> prewarm t)
        : int);
  t

let signature_of_triples t triples = Sig_cache.signature_of_triples t.cache triples

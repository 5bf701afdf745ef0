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
  cache_mb : int;  (* per-instance [Sig_cache] budget *)
  prewarm : bool;  (* whole-pool sweep + [Sig_cache.freeze] at create *)
  cover : cover;  (* covering backend: greedy (paper) or exact (minimal) *)
  cover_budget : int;  (* exact backend's hitting-set node budget *)
  store_dir : string option;  (* snapshot dir: load instead of sweeping, save after *)
}

let default_config =
  {
    domains = None;
    cache_mb = Sig_cache.default_budget_mb;
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

let with_sink t f = match t.sink with None -> f () | Some sk -> Obs.with_sink sk f

(* --- Batched signature retrieval ------------------------------------ *)

(* Per-fault signature triples for a whole fault list: probe the cache,
   then fill every miss through [Fault_sim.simulate_batch] slabs instead
   of one scalar cone walk per (fault, block).  This is the cold path of
   the baselines ([Single_diag], [Dict_diag]) and anything else that
   wants many signatures at once.  Triples arrive in the canonical
   per-block order of [Fault_sim.iter_po_diffs], the order every cache
   entry uses. *)

(* Tile cap on the fault axis, matching [Explain.build_session]: bounds the
   per-batch working set so slabs stay cache-sized. *)
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
   [starts] holds at least [hi - lo] slots. *)
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

let fault_triples t (faults : Fault_list.fault array) =
  let n = Array.length faults in
  let out = Array.make n [||] in
  let hit = Array.make n false in
  for i = 0 to n - 1 do
    let f = faults.(i) in
    let k = Sig_cache.key ~site:f.Fault_list.site ~stuck:f.Fault_list.stuck in
    match Sig_cache.find t.cache k with
    | Some triples ->
      out.(i) <- triples;
      hit.(i) <- true
    | None -> ()
  done;
  let miss = ref [] in
  for i = n - 1 downto 0 do
    if not hit.(i) then miss := i :: !miss
  done;
  let miss = Array.of_list !miss in
  let nmiss = Array.length miss in
  if nmiss > 0 then begin
    let sim = Fault_sim.create ~reach:t.reach t.net in
    let b = Fault_sim.prepare_batch sim ~blocks:(blocks t) ~goods:(goods t) in
    let tb = { buf = Array.make 4096 0; len = 0 } in
    let starts = Array.make batch_tile 0 in
    let cold = Array.map (fun i -> faults.(i)) miss in
    let lo = ref 0 in
    while !lo < nmiss do
      let hi = min nmiss (!lo + batch_tile) in
      sweep_tile b tb starts cold ~lo:!lo ~hi (fun j triples -> out.(miss.(j)) <- triples);
      lo := hi
    done;
    if Obs.enabled () then begin
      Fault_sim.publish_batch_stats b;
      Fault_sim.publish_stats sim
    end;
    Array.iter
      (fun i ->
        let f = faults.(i) in
        Sig_cache.store t.cache
          (Sig_cache.key ~site:f.Fault_list.site ~stuck:f.Fault_list.stuck)
          out.(i))
      miss
  end;
  out

(* --- Whole-pool prewarm --------------------------------------------- *)

let c_prewarm_faults = Obs.counter "prewarm.faults"

(* One PPSFP sweep over the whole fault pool, then [Sig_cache.freeze]:
   after this, every signature a diagnosis can ask for is answered by
   the frozen tier — no hashing, no shard mutex — and the per-die work
   of a volume run reduces to covering.  The pool is the class
   representatives, the keys the phases actually probe (Explain rows
   and both baselines key by [Fault_list.representative_of]).

   Probes use [Sig_cache.peek] so the hit/miss counters keep reflecting
   only probes a diagnosis made — the acceptance check that a frozen
   session serves dies with [cache.hits = 0] depends on that.  Results
   are written per fault index (chunks are contiguous, writes disjoint),
   heavy scratch (simulator, delta slabs, triple buffers) is per slot,
   and stores run sequentially after the join, so the cache contents —
   and therefore every later diagnosis — are identical for any domain
   count. *)
let prewarm t =
  let c = t.cache in
  if Sig_cache.is_frozen c then 0
  else
    Obs.phase "prewarm" (fun () ->
        let pool = Fault_list.representatives (Fault_list.collapse t.net) in
        let cold =
          Array.of_list
            (List.filter
               (fun f ->
                 Sig_cache.peek c (Sig_cache.key ~site:f.Fault_list.site ~stuck:f.Fault_list.stuck)
                 = None)
               pool)
        in
        let n = Array.length cold in
        let out = Array.make n [||] in
        if n > 0 then begin
          let domains = t.config.domains in
          let plan =
            Parallel.weighted_chunks ?domains ~min_chunk_weight:64 ~max_chunk_size:batch_tile
              ~weights:(Array.make n 1) ()
          in
          let nslots = Parallel.plan_slots ?domains plan in
          let sims = Array.init nslots (fun _ -> Fault_sim.create ~reach:t.reach t.net) in
          let blocks = blocks t and goods = goods t in
          let b0 = Fault_sim.prepare_batch sims.(0) ~blocks ~goods in
          let batches =
            Array.init nslots (fun s ->
                if s = 0 then b0
                else Fault_sim.prepare_batch ~share:b0 sims.(s) ~blocks ~goods)
          in
          let tbs = Array.init nslots (fun _ -> { buf = Array.make 4096 0; len = 0 }) in
          let startss = Array.init nslots (fun _ -> Array.make batch_tile 0) in
          Parallel.run_plan_slotted ?domains plan (fun ~slot _ci lo hi ->
              sweep_tile batches.(slot) tbs.(slot) startss.(slot) cold ~lo ~hi (fun i triples ->
                  out.(i) <- triples));
          if Obs.enabled () then begin
            Array.iter Fault_sim.publish_batch_stats batches;
            Array.iter Fault_sim.publish_stats sims
          end
        end;
        (* Hand the sweep results straight to the packer instead of
           routing them through the mutable tier: [store] would evict
           FIFO once the pool outgrew the word budget (rnd50k's
           100k-fault pool would), and evicted entries can't be frozen.
           [~extra] bypasses the budget, so the arena always holds the
           complete pool. *)
        let extra =
          Array.mapi
            (fun i f ->
              (Sig_cache.key ~site:f.Fault_list.site ~stuck:f.Fault_list.stuck, out.(i)))
            cold
        in
        Sig_cache.freeze ~extra c;
        if Obs.enabled () then Obs.add c_prewarm_faults n;
        n)

let create ?(config = default_config) ?sink net pats =
  let t =
    {
      net;
      pats;
      reach = Po_reach.compute net;
      cache = Sig_cache.create ~budget_mb:config.cache_mb net pats;
      sink;
      config;
    }
  in
  if config.prewarm then
    ignore
      (with_sink t (fun () ->
           (* Load-or-sweep: a valid snapshot publishes the frozen tier
              with zero simulation; anything else (no dir, no file, or a
              rejected file — [store.rejects]) falls through to the live
              sweep, which is then saved so the next process loads. *)
           match config.store_dir with
           | Some dir when Sig_cache.load_frozen ~dir t.cache -> 0
           | Some dir ->
             let n = prewarm t in
             ignore (Sig_cache.save_frozen ~dir t.cache : bool);
             n
           | None -> prewarm t)
        : int);
  t

let signature_of_triples t triples = Sig_cache.signature_of_triples t.cache triples

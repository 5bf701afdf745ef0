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
  covers : Bitvec.t array; (* per row *)
  nfp : int; (* failing-pattern count, the minor stride below *)
  matched : int array; (* flat row x failing-pattern, [row * nfp + fp] *)
  spurious_any : Bytes.t; (* same layout: '\001' iff any spurious bit *)
  mispredict_fail : int array; (* per row *)
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
let spurious_any t c fp = Bytes.get t.spurious_any ((t.row_of.(c) * t.nfp) + fp) <> '\000'

let exact t c fp =
  let o = (t.row_of.(c) * t.nfp) + fp in
  t.matched.(o) = t.nfail_pos.(fp) && Bytes.get t.spurious_any o = '\000'

let mispredict_fail t c = t.mispredict_fail.(t.row_of.(c))
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

let build_session session dlog =
  Obs.phase "explain-build" @@ fun () ->
  (* Sub-phases (nested spans, see [Obs]): prep = seeding, screening,
     class collapse, lookup tables and the cache probe; sim = the
     session's sweep over cache misses; replay = the append of the
     misses plus the matrix fill of every row.  On warm-cache rebuilds
     sim is empty and the split shows where the remaining time
     lives. *)
  let sp_prep = Obs.span_begin "explain.prep" in
  let net = Session.netlist session in
  let seeded = seed_candidates net dlog in
  let num_seeded = Array.length seeded in
  let observations = Datalog.observations dlog in
  let nobs = Array.length observations in
  let failing = Array.of_list (Datalog.failing_patterns dlog) in
  let nfp = Array.length failing in
  let npos = Datalog.npos dlog in
  (* Direct-indexed lookup tables — the matched loop below runs once per
     covered observation, so hash probes there dominated the whole
     build. *)
  let fp_of_pattern = Array.make (max 1 (Datalog.npatterns dlog)) (-1) in
  Array.iteri (fun i p -> fp_of_pattern.(p) <- i) failing;
  let obs_of = Array.make (max 1 (nfp * npos)) (-1) in
  Array.iteri
    (fun i (ob : Datalog.observation) ->
      obs_of.((fp_of_pattern.(ob.pattern) * npos) + ob.po) <- i)
    observations;
  let nfail_pos = Array.map (fun p -> List.length (Datalog.failing_pos dlog p)) failing in
  (* Good-machine words and pattern blocks come precomputed from the
     session; the session's cache instance is the per-problem memo. *)
  let blocks = Session.blocks session in
  let nblocks = Array.length blocks in
  let scache = Option.get (Session.cache session) in
  let goods = Session.goods session in
  (* Word-level observed-bit masks: the matrix fill splits each diff
     word into matched ([w land obsmask]) and spurious
     ([w land fail_mask land lnot obsmask]) bits up front, so the
     matched loop carries no observation lookup or branch and the
     spurious bits are only counted and ORed, never visited. *)
  let { Datalog.fail = fail_masks; obs = obsmask; _ } = Datalog.observed_words dlog blocks in
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
  let spurious_any = Bytes.make (max 1 (nrows * nfp)) '\000' in
  let mispredict_fail = Array.make (max 1 nrows) 0 in
  let mispredict_pass = Array.make (max 1 nrows) 0 in
  (* Cache probe, sequential on the calling domain (a deterministic hit
     pattern within one build).  Only the misses simulate. *)
  let miss = ref [] in
  for r = nrows - 1 downto 0 do
    if not (Sig_cache.probe scache row_key.(r)) then miss := r :: !miss
  done;
  let miss = Array.of_list !miss in
  Obs.span_end sp_prep;
  let sp_sim = Obs.span_begin "explain.sim" in
  let fresh = Session.simulate session (Array.map (fun r -> candidates.(row_member.(r))) miss) in
  Obs.span_end sp_sim;
  (* Append the fresh signatures as one batch, then fill every row the
     same way: streamed out of the arena, with no array per row. *)
  let sp_replay = Obs.span_begin "explain.replay" in
  Sig_cache.store scache (Array.map (fun r -> row_key.(r)) miss) fresh;
  for r = 0 to nrows - 1 do
    let rc = covers.(r) in
    let ro = r * nfp in
    let prev_bi = ref (-1) in
    let any = ref 0 and spur = ref 0 in
    (* Per-block accumulators, flushed once per block: passing-pattern
       bits of [any] give the pass-misprediction count, and each set bit
       of [spur] — the OR of the block's spurious words — flags its
       failing pattern.  One [ctz] per flagged pattern per block, however
       many POs mispredicted there. *)
    let flush () =
      if !prev_bi >= 0 then begin
        let block = blocks.(!prev_bi) in
        let pass_pred =
          !any land lnot fail_masks.(!prev_bi) land Logic.mask_of_width block.width
        in
        mispredict_pass.(r) <- mispredict_pass.(r) + Logic.popcount pass_pred;
        let ws = ref !spur in
        while !ws <> 0 do
          let k = Bitvec.ctz_word !ws in
          ws := !ws land (!ws - 1);
          Bytes.set spurious_any (ro + fp_of_pattern.(block.base + k)) '\001'
        done
      end;
      any := 0;
      spur := 0
    in
    (* Failing-pattern bits, split matched/spurious by [obsmask]: each
       matched bit is a lookup and an increment, and the spurious bits
       of a word are one popcount and one OR. *)
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
      let ws = wf land lnot om in
      mispredict_fail.(r) <- mispredict_fail.(r) + Logic.popcount ws;
      spur := !spur lor ws
    in
    Sig_cache.iter scache row_key.(r) visit;
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
    covers;
    nfp;
    matched;
    spurious_any;
    mispredict_fail;
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

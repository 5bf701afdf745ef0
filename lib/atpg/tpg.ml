type report = {
  patterns : Pattern.t;
  total_faults : int;
  detected : int;
  untestable : int;
  aborted : int;
  coverage : float;
}

(* Fault dropping through the batch kernel.  Each entry point holds one
   dropper for its whole run: a simulator over one pattern block, whose
   good words [load] rebinds to the next block, and the fault list it
   drops from. *)
type dropper = {
  net : Netlist.t;
  sim : Fault_sim.t;
  faults : Fault_list.fault array;
  idx : int array; (* the faults of the current sweep *)
  det : int array; (* per swept fault: its detection word in the block *)
}

let unit_block vec =
  { Pattern.base = 0; width = 1; pi_words = Array.map (fun b -> if b then 1 else 0) vec }

let load d block = Fault_sim.rebind d.sim (Fault_sim.good d.net [| block |])

let dropper net faults =
  let block = unit_block (Array.make (Netlist.num_pis net) false) in
  let n = Array.length faults in
  {
    net;
    sim = Fault_sim.create net (Fault_sim.good net [| block |]);
    faults;
    idx = Array.make n 0;
    det = Array.make n 0;
  }

(* Credit every fault but [skip] that [counts] holds below [target]
   with the detections [block]'s lanes in [lanes] give it, up to
   [target]: one per lane that detects it, a set bit of the OR of its
   masked PO diff words.  A fault that reaches [target] drops out of
   later sweeps.  Returns the detections credited. *)
let credit d ~target ~skip ?(lanes = -1) counts block =
  load d block;
  let n = ref 0 in
  for i = 0 to Array.length d.faults - 1 do
    if counts.(i) < target && i <> skip then begin
      d.idx.(!n) <- i;
      d.det.(!n) <- 0;
      incr n
    end
  done;
  Fault_sim.simulate_batch d.sim ~n:!n
    ~fault:(fun j ->
      let f = d.faults.(d.idx.(j)) in
      (f.Fault_list.site, f.Fault_list.stuck))
    (fun j _ _ w -> d.det.(j) <- d.det.(j) lor w);
  let gained = ref 0 in
  for j = 0 to !n - 1 do
    let i = d.idx.(j) in
    let add = min (target - counts.(i)) (Bitvec.popcount_word (d.det.(j) land lanes)) in
    counts.(i) <- counts.(i) + add;
    gained := !gained + add
  done;
  !gained

let vector_key v = String.init (Array.length v) (fun k -> if v.(k) then '1' else '0')

let flow_version = 1

(* Four word-sized slabs of random patterns. *)
let random_budget = 4 * Bitvec.word_bits

(* Survivors per round of phase 2's PODEM runs.  A constant, not the
   domain count, so the runs, commits and discards are the same on
   every domain count. *)
let window = 32

let c_discards = Obs.counter "tpg.speculative_discards"

let generate ?(seed = 1) ?(backtrack_limit = 512) ?(detections = 1) t =
  if detections < 1 then invalid_arg "Tpg.generate: detections < 1";
  Obs.phase "tpg" @@ fun () ->
  let rng = Rng.create seed in
  let collapsed = Fault_list.collapse t in
  let faults = Array.of_list (Fault_list.representatives collapsed) in
  let nfaults = Array.length faults in
  let npis = Netlist.num_pis t in
  let d = dropper t faults in
  let counts = Array.make nfaults 0 in
  (* Every vector in the set, by its text row: a detection is credited
     once per distinct vector, so a repeat credits nothing. *)
  let committed = Hashtbl.create 256 in
  (* Phase 1: random patterns in word-sized slabs, crediting detections
     as we go and stopping early when a slab credits nothing.  Only the
     lanes whose vector is neither in a kept slab nor at an earlier
     lane of its own slab credit. *)
  let budget = detections * random_budget in
  let kept = ref [] in
  let continue = ref true in
  let used = ref 0 in
  while !continue && !used < budget do
    let pats = Pattern.random rng ~npis ~count:(min Bitvec.word_bits (budget - !used)) in
    used := !used + Pattern.count pats;
    let fresh = Hashtbl.create Bitvec.word_bits in
    let lanes = ref 0 in
    for p = 0 to Pattern.count pats - 1 do
      let key = Pattern.to_string pats p in
      if not (Hashtbl.mem committed key || Hashtbl.mem fresh key) then begin
        Hashtbl.add fresh key ();
        lanes := !lanes lor (1 lsl p)
      end
    done;
    (* A slab is at most one word: one block. *)
    let block = List.hd (Pattern.blocks pats) in
    if credit d ~target:detections ~skip:(-1) ~lanes:!lanes counts block > 0 then begin
      Hashtbl.iter (fun key () -> Hashtbl.replace committed key ()) fresh;
      kept := pats :: !kept
    end
    else continue := false
  done;
  let random_pats =
    match !kept with
    | [] -> Pattern.of_list ~npis []
    | l -> List.fold_left Pattern.append (List.hd l) (List.tl l)
  in
  (* Phase 2: PODEM top-off in rounds; round [a] runs attempt [a] of
     every survivor (below [detections], neither proven untestable nor
     aborted), [window] survivors at a time.  A window's runs go across
     domains, one engine per drain slot; [Podem.run] is a pure function
     of the fault and the fill seed, so running one early changes
     nothing.  The window then commits in fault order, as if its faults
     had run one by one: a fault earlier commits took to [detections]
     discards its run, and a test equal to a committed pattern is not
     committed, its fault going on to its next attempt.  Attempt 0
     takes [Podem.run]'s default fill; a later one a seed drawn from a
     generator keyed by the flow seed, the fault and the attempt, so
     that repeated tests of a fault differ. *)
  let attempts = 4 * detections in
  let fill_seed i a =
    if a = 0 then None
    else Some (Rng.int (Rng.create ((((seed * nfaults) + i) * attempts) + a)) max_int)
  in
  let stopped = Array.make nfaults false in
  let survivor i = counts.(i) < detections && not stopped.(i) in
  let untestable = ref 0 in
  let aborted = ref 0 in
  let extra = ref [] in
  let work = ref Podem.no_work in
  let discards = ref 0 in
  let plan n = Parallel.weighted_chunks ~max_chunk_size:1 ~weights:(Array.make n 1) () in
  let engines =
    Array.init (Parallel.plan_slots (plan window)) (fun _ -> Podem.create t)
  in
  let members = Array.make window 0 in
  let runs = Array.make window (Podem.Aborted, Podem.no_work) in
  let round = ref 0 in
  let busy = ref true in
  while !busy && !round < attempts do
    let a = !round in
    busy := false;
    let next = ref 0 in
    while !next < nfaults do
      let n = ref 0 in
      while !n < window && !next < nfaults do
        if survivor !next then begin
          members.(!n) <- !next;
          incr n
        end;
        incr next
      done;
      if !n > 0 then busy := true;
      Parallel.run_plan_slotted (plan !n) (fun ~slot j _ _ ->
          let i = members.(j) in
          runs.(j) <-
            Podem.run ~backtrack_limit ?fill_seed:(fill_seed i a) engines.(slot)
              faults.(i));
      for j = 0 to !n - 1 do
        let i = members.(j) in
        if not (survivor i) then incr discards
        else begin
          let result, w = runs.(j) in
          work := Podem.add_work !work w;
          match result with
          | Podem.Untestable ->
            stopped.(i) <- true;
            incr untestable
          | Podem.Aborted ->
            stopped.(i) <- true;
            incr aborted
          | Podem.Test pattern ->
            let key = vector_key pattern in
            if not (Hashtbl.mem committed key) then begin
              Hashtbl.add committed key ();
              extra := pattern :: !extra;
              counts.(i) <- counts.(i) + 1;
              (* Credit the other survivors the new pattern detects. *)
              ignore (credit d ~target:detections ~skip:i counts (unit_block pattern) : int)
            end
        end
      done
    done;
    incr round
  done;
  Podem.publish !work;
  if Obs.enabled () then Obs.add c_discards !discards;
  Fault_sim.publish_stats d.sim;
  let patterns =
    Pattern.append random_pats (Pattern.of_list ~npis (List.rev !extra))
  in
  let ndet =
    Array.fold_left (fun acc c -> acc + Bool.to_int (c >= detections)) 0 counts
  in
  {
    patterns;
    total_faults = nfaults;
    detected = ndet;
    untestable = !untestable;
    aborted = !aborted;
    coverage = Stats.ratio ndet (nfaults - !untestable);
  }

let compact t pats =
  let collapsed = Fault_list.collapse t in
  let faults = Array.of_list (Fault_list.representatives collapsed) in
  let d = dropper t faults in
  let covered = Array.make (Array.length faults) 0 in
  let keep = ref [] in
  (* Reverse order: later patterns (typically PODEM-targeted) are more
     specific, so giving them first claim drops redundant early randoms. *)
  for p = Pattern.count pats - 1 downto 0 do
    let vec = Pattern.pattern pats p in
    if credit d ~target:1 ~skip:(-1) covered (unit_block vec) > 0 then
      keep := vec :: !keep
  done;
  Fault_sim.publish_stats d.sim;
  Pattern.of_list ~npis:(Pattern.npis pats) !keep

let coverage_of t pats =
  let collapsed = Fault_list.collapse t in
  let faults = Array.of_list (Fault_list.representatives collapsed) in
  let d = dropper t faults in
  let counts = Array.make (Array.length faults) 0 in
  let ndet =
    List.fold_left
      (fun acc block -> acc + credit d ~target:1 ~skip:(-1) counts block)
      0 (Pattern.blocks pats)
  in
  Fault_sim.publish_stats d.sim;
  Stats.ratio ndet (Array.length faults)

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
  det : int array; (* per fault: its detection word in the current block *)
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

(* One sweep of the faults [live] keeps against the loaded block: [f i w]
   for each, in fault order, with [w] the OR of fault [i]'s masked PO
   diff words — bit [k] set iff the block's pattern [k] detects it. *)
let detections d ~live f =
  let n = ref 0 in
  for i = 0 to Array.length d.faults - 1 do
    if live i then begin
      d.idx.(!n) <- i;
      d.det.(i) <- 0;
      incr n
    end
  done;
  Fault_sim.simulate_batch d.sim ~n:!n
    ~fault:(fun j ->
      let f = d.faults.(d.idx.(j)) in
      (f.Fault_list.site, f.Fault_list.stuck))
    (fun j _ _ w ->
      let i = d.idx.(j) in
      d.det.(i) <- d.det.(i) lor w);
  for j = 0 to !n - 1 do
    let i = d.idx.(j) in
    f i d.det.(i)
  done

(* Mark in [detected] the faults [block] detects that it does not hold
   yet; returns how many. *)
let drop_block d block detected =
  load d block;
  let gained = ref 0 in
  detections d
    ~live:(fun i -> not detected.(i))
    (fun i w ->
      if w <> 0 then begin
        detected.(i) <- true;
        incr gained
      end);
  !gained

let drop d pats detected =
  List.fold_left
    (fun acc block -> acc + drop_block d block detected)
    0 (Pattern.blocks pats)

let flow_version = 1

(* Survivors per round of phase 2's PODEM runs.  A constant, not the
   domain count, so the runs, commits and discards are the same on
   every domain count. *)
let window = 32

let c_discards = Obs.counter "tpg.speculative_discards"

let generate ?(seed = 1) ?(random_budget = 252) ?(backtrack_limit = 512) t =
  Obs.phase "tpg" @@ fun () ->
  let rng = Rng.create seed in
  let collapsed = Fault_list.collapse t in
  let faults = Array.of_list (Fault_list.representatives collapsed) in
  let nfaults = Array.length faults in
  let npis = Netlist.num_pis t in
  let d = dropper t faults in
  (* Phase 1: random patterns in word-sized slabs, dropping as we go and
     stopping early when a slab stops detecting anything new. *)
  let slab = Bitvec.word_bits in
  let detected = Array.make nfaults false in
  let kept = ref [] in
  let continue = ref true in
  let used = ref 0 in
  while !continue && !used < random_budget do
    let pats = Pattern.random rng ~npis ~count:(min slab (random_budget - !used)) in
    used := !used + Pattern.count pats;
    if drop d pats detected > 0 then kept := pats :: !kept else continue := false
  done;
  let random_pats =
    match !kept with
    | [] -> Pattern.of_list ~npis []
    | l -> List.fold_left Pattern.append (List.hd l) (List.tl l)
  in
  (* Phase 2: PODEM top-off for every survivor, [window] survivors at a
     time.  A window's runs go across domains, one engine per drain
     slot; [Podem.run] is a pure function of the fault, so running one
     early changes nothing.  The window then commits in fault order, as
     if its faults had run one by one: a fault an earlier commit's
     pattern already dropped discards its run. *)
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
  let next = ref 0 in
  while !next < nfaults do
    let n = ref 0 in
    while !n < window && !next < nfaults do
      if not detected.(!next) then begin
        members.(!n) <- !next;
        incr n
      end;
      incr next
    done;
    Parallel.run_plan_slotted (plan !n) (fun ~slot j _ _ ->
        runs.(j) <- Podem.run ~backtrack_limit engines.(slot) faults.(members.(j)));
    for j = 0 to !n - 1 do
      let i = members.(j) in
      if detected.(i) then incr discards
      else begin
        let result, w = runs.(j) in
        work := Podem.add_work !work w;
        match result with
        | Podem.Untestable -> incr untestable
        | Podem.Aborted -> incr aborted
        | Podem.Test pattern ->
          extra := pattern :: !extra;
          detected.(i) <- true;
          (* Drop other survivors detected by the new pattern. *)
          ignore (drop_block d (unit_block pattern) detected : int)
      end
    done
  done;
  Podem.publish !work;
  if Obs.enabled () then Obs.add c_discards !discards;
  Fault_sim.publish_stats d.sim;
  let patterns =
    Pattern.append random_pats (Pattern.of_list ~npis (List.rev !extra))
  in
  let ndet = Array.fold_left (fun acc hit -> acc + Bool.to_int hit) 0 detected in
  {
    patterns;
    total_faults = nfaults;
    detected = ndet;
    untestable = !untestable;
    aborted = !aborted;
    coverage = Stats.ratio ndet (nfaults - !untestable);
  }

let generate_ndetect ?(seed = 1) ?(backtrack_limit = 512) ~n t =
  assert (n >= 1);
  Obs.phase "tpg" @@ fun () ->
  let rng = Rng.create seed in
  let collapsed = Fault_list.collapse t in
  let faults = Array.of_list (Fault_list.representatives collapsed) in
  let nfaults = Array.length faults in
  let npis = Netlist.num_pis t in
  let counts = Array.make nfaults 0 in
  let d = dropper t faults in
  let live i = counts.(i) < n in
  (* Phase 1: random slabs; each pattern of a slab is a distinct
     detection opportunity.  Stop at the first slab that helps nobody. *)
  let kept = ref [] in
  let continue = ref true in
  let slabs = ref 0 in
  while !continue && !slabs < 8 * n do
    incr slabs;
    let pats = Pattern.random rng ~npis ~count:Bitvec.word_bits in
    load d (List.hd (Pattern.blocks pats));
    let gained = ref 0 in
    detections d ~live (fun i w ->
        let add = min (n - counts.(i)) (Bitvec.popcount_word w) in
        if add > 0 then begin
          counts.(i) <- counts.(i) + add;
          gained := !gained + add
        end);
    if !gained > 0 then kept := pats :: !kept else continue := false
  done;
  let random_pats =
    match !kept with
    | [] -> Pattern.of_list ~npis []
    | l -> List.fold_left Pattern.append (List.hd l) (List.tl l)
  in
  (* Phase 2: PODEM top-off with varied random fill, so repeated tests
     for the same fault are distinct patterns (hence distinct
     detections). *)
  let untestable = Array.make nfaults false in
  let aborted = ref 0 in
  let extra = ref [] in
  let apply_pattern pattern =
    load d (unit_block pattern);
    detections d ~live (fun j w -> if w <> 0 then counts.(j) <- counts.(j) + 1)
  in
  let podem = Podem.create t in
  let work = ref Podem.no_work in
  Array.iteri
    (fun i f ->
      let attempts = ref 0 in
      let gave_up = ref false in
      while counts.(i) < n && (not untestable.(i)) && not !gave_up do
        incr attempts;
        if !attempts > 4 * n then gave_up := true
        else begin
          let result, w =
            Podem.run ~backtrack_limit ~fill_seed:(Rng.int rng 1_000_000) podem f
          in
          work := Podem.add_work !work w;
          match result with
          | Podem.Untestable -> untestable.(i) <- true
          | Podem.Aborted ->
            incr aborted;
            gave_up := true
          | Podem.Test pattern ->
            extra := pattern :: !extra;
            apply_pattern pattern
        end
      done)
    faults;
  Podem.publish !work;
  Fault_sim.publish_stats d.sim;
  let patterns = Pattern.append random_pats (Pattern.of_list ~npis (List.rev !extra)) in
  let n_untestable = Array.fold_left (fun acc u -> acc + Bool.to_int u) 0 untestable in
  let ndet =
    Array.fold_left (fun acc (c : int) -> acc + Bool.to_int (c >= n)) 0 counts
  in
  {
    patterns;
    total_faults = nfaults;
    detected = ndet;
    untestable = n_untestable;
    aborted = !aborted;
    coverage = Stats.ratio ndet (nfaults - n_untestable);
  }

let compact t pats =
  let collapsed = Fault_list.collapse t in
  let faults = Array.of_list (Fault_list.representatives collapsed) in
  let d = dropper t faults in
  let covered = Array.make (Array.length faults) false in
  let keep = ref [] in
  (* Reverse order: later patterns (typically PODEM-targeted) are more
     specific, so giving them first claim drops redundant early randoms. *)
  for p = Pattern.count pats - 1 downto 0 do
    let vec = Pattern.pattern pats p in
    if drop_block d (unit_block vec) covered > 0 then keep := vec :: !keep
  done;
  Fault_sim.publish_stats d.sim;
  Pattern.of_list ~npis:(Pattern.npis pats) !keep

let coverage_of t pats =
  let collapsed = Fault_list.collapse t in
  let faults = Array.of_list (Fault_list.representatives collapsed) in
  let d = dropper t faults in
  let ndet = drop d pats (Array.make (Array.length faults) false) in
  Fault_sim.publish_stats d.sim;
  Stats.ratio ndet (Array.length faults)

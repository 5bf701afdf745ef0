type report = {
  patterns : Pattern.t;
  total_faults : int;
  detected : int;
  untestable : int;
  aborted : int;
  coverage : float;
}

(* Which of [faults] does [pats] detect?  Returns a bool array aligned
   with [faults].  Each entry point computes the netlist's PO
   reachability once and shares it with every simulator it creates. *)
let detect_map t ~reach pats faults =
  let sim = Fault_sim.create ~reach t in
  let detected = Array.make (Array.length faults) false in
  List.iter
    (fun block ->
      let good = Logic_sim.simulate_block t block in
      Array.iteri
        (fun i f ->
          if not detected.(i) then
            let w =
              Fault_sim.detects sim ~good ~width:block.Pattern.width
                ~site:f.Fault_list.site ~stuck:f.Fault_list.stuck
            in
            if w <> 0 then detected.(i) <- true)
        faults)
    (Pattern.blocks pats);
  detected

let flow_version = 1

let generate ?(seed = 1) ?(random_budget = 252) ?(backtrack_limit = 512) t =
  Obs.phase "tpg" @@ fun () ->
  let rng = Rng.create seed in
  let collapsed = Fault_list.collapse t in
  let faults = Array.of_list (Fault_list.representatives collapsed) in
  let nfaults = Array.length faults in
  let npis = Netlist.num_pis t in
  let reach = Po_reach.compute t in
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
    let newly = detect_map t ~reach pats faults in
    let gained = ref 0 in
    Array.iteri
      (fun i d ->
        if d && not detected.(i) then begin
          detected.(i) <- true;
          incr gained
        end)
      newly;
    if !gained > 0 then kept := pats :: !kept else continue := false
  done;
  let random_pats =
    match !kept with
    | [] -> Pattern.of_list ~npis []
    | l -> List.fold_left Pattern.append (List.hd l) (List.tl l)
  in
  (* Phase 2: PODEM top-off for every survivor. *)
  let untestable = ref 0 in
  let aborted = ref 0 in
  let extra = ref [] in
  let sim = Fault_sim.create ~reach t in
  let podem = Podem.create t in
  Array.iteri
    (fun i f ->
      if not detected.(i) then
        match Podem.run ~backtrack_limit podem f with
        | Podem.Untestable -> incr untestable
        | Podem.Aborted -> incr aborted
        | Podem.Test pattern ->
          extra := pattern :: !extra;
          detected.(i) <- true;
          (* Drop other survivors detected by the new pattern. *)
          let block =
            {
              Pattern.base = 0;
              width = 1;
              pi_words = Array.map (fun b -> if b then 1 else 0) pattern;
            }
          in
          let good = Logic_sim.simulate_block t block in
          Array.iteri
            (fun j g ->
              if (not detected.(j)) && j <> i then
                let w =
                  Fault_sim.detects sim ~good ~width:1 ~site:g.Fault_list.site
                    ~stuck:g.Fault_list.stuck
                in
                if w <> 0 then detected.(j) <- true)
            faults)
    faults;
  Podem.publish_stats podem;
  let patterns =
    Pattern.append random_pats (Pattern.of_list ~npis (List.rev !extra))
  in
  let ndet = Array.fold_left (fun acc d -> acc + Bool.to_int d) 0 detected in
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
  let sim = Fault_sim.create t in
  let popcount w =
    let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
    go w 0
  in
  (* Phase 1: random slabs; each pattern of a slab is a distinct
     detection opportunity.  Stop at the first slab that helps nobody. *)
  let kept = ref [] in
  let continue = ref true in
  let slabs = ref 0 in
  while !continue && !slabs < 8 * n do
    incr slabs;
    let pats = Pattern.random rng ~npis ~count:Bitvec.word_bits in
    let block = List.hd (Pattern.blocks pats) in
    let good = Logic_sim.simulate_block t block in
    let gained = ref 0 in
    Array.iteri
      (fun i f ->
        if counts.(i) < n then begin
          let w =
            Fault_sim.detects sim ~good ~width:block.Pattern.width
              ~site:f.Fault_list.site ~stuck:f.Fault_list.stuck
          in
          let add = min (n - counts.(i)) (popcount w) in
          if add > 0 then begin
            counts.(i) <- counts.(i) + add;
            gained := !gained + add
          end
        end)
      faults;
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
    let block =
      { Pattern.base = 0; width = 1; pi_words = Array.map (fun b -> if b then 1 else 0) pattern }
    in
    let good = Logic_sim.simulate_block t block in
    Array.iteri
      (fun j g ->
        if counts.(j) < n then
          let w =
            Fault_sim.detects sim ~good ~width:1 ~site:g.Fault_list.site
              ~stuck:g.Fault_list.stuck
          in
          if w <> 0 then counts.(j) <- counts.(j) + 1)
      faults
  in
  let podem = Podem.create t in
  Array.iteri
    (fun i f ->
      let attempts = ref 0 in
      let gave_up = ref false in
      while counts.(i) < n && (not untestable.(i)) && not !gave_up do
        incr attempts;
        if !attempts > 4 * n then gave_up := true
        else
          match Podem.run ~backtrack_limit ~fill_seed:(Rng.int rng 1_000_000) podem f with
          | Podem.Untestable -> untestable.(i) <- true
          | Podem.Aborted ->
            incr aborted;
            gave_up := true
          | Podem.Test pattern ->
            extra := pattern :: !extra;
            apply_pattern pattern
      done)
    faults;
  Podem.publish_stats podem;
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
  let sim = Fault_sim.create t in
  let covered = Array.make (Array.length faults) false in
  let keep = ref [] in
  (* Reverse order: later patterns (typically PODEM-targeted) are more
     specific, so giving them first claim drops redundant early randoms. *)
  for p = Pattern.count pats - 1 downto 0 do
    let vec = Pattern.pattern pats p in
    let block =
      { Pattern.base = 0; width = 1; pi_words = Array.map (fun b -> if b then 1 else 0) vec }
    in
    let good = Logic_sim.simulate_block t block in
    let useful = ref false in
    Array.iteri
      (fun i f ->
        if not covered.(i) then
          let w =
            Fault_sim.detects sim ~good ~width:1 ~site:f.Fault_list.site
              ~stuck:f.Fault_list.stuck
          in
          if w <> 0 then begin
            covered.(i) <- true;
            useful := true
          end)
      faults;
    if !useful then keep := vec :: !keep
  done;
  Pattern.of_list ~npis:(Pattern.npis pats) !keep

let coverage_of t pats =
  let collapsed = Fault_list.collapse t in
  let faults = Array.of_list (Fault_list.representatives collapsed) in
  let detected = detect_map t ~reach:(Po_reach.compute t) pats faults in
  let ndet = Array.fold_left (fun acc d -> acc + Bool.to_int d) 0 detected in
  Stats.ratio ndet (Array.length faults)

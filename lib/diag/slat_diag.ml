type result = {
  multiplet : Fault_list.fault list;
  covered_patterns : int list;
  ignored_patterns : int list;
  score : Scoring.score;
}

let max_multiplet = 12

let diagnose m =
  let classification = Slat.classify m in
  let cand = Explain.candidates m in
  let ncand = Array.length cand in
  let failing = Explain.failing m in
  let nfp = Array.length failing in
  (* exact.(c) bit fp: candidate c exactly explains failing pattern fp. *)
  let exact =
    Array.init ncand (fun c ->
        let bv = Bitvec.create nfp in
        for fp = 0 to nfp - 1 do
          if Explain.exact m c fp then Bitvec.set bv fp true
        done;
        bv)
  in
  let slat_set = Bitvec.create nfp in
  Array.iteri
    (fun fp p -> if List.mem p classification.Slat.slat then Bitvec.set slat_set fp true)
    failing;
  (* Greedy cover of the SLAT patterns. *)
  let uncovered = Bitvec.copy slat_set in
  let chosen = ref [] in
  let continue = ref true in
  while !continue && List.length !chosen < max_multiplet do
    let best = ref None in
    for c = 0 to ncand - 1 do
      if not (List.mem c !chosen) then begin
        let inter = Bitvec.copy exact.(c) in
        Bitvec.inter_into ~dst:inter uncovered;
        let gain = Bitvec.popcount inter in
        if gain > 0 then
          match !best with
          | Some (bgain, bc) when bgain > gain || (bgain = gain && bc < c) -> ()
          | _ -> best := Some (gain, c)
      end
    done;
    match !best with
    | None -> continue := false
    | Some (_, c) ->
      chosen := c :: !chosen;
      Bitvec.diff_into ~dst:uncovered exact.(c)
  done;
  let multiplet =
    List.sort Fault_list.compare_fault (List.map (fun c -> cand.(c)) !chosen)
  in
  let covered_patterns =
    let covered = Bitvec.copy slat_set in
    Bitvec.diff_into ~dst:covered uncovered;
    List.map (fun fp -> failing.(fp)) (Bitvec.to_list covered)
  in
  let score =
    let session = Explain.session m in
    Scoring.evaluate_multiplet ~goods:(Session.goods session) (Explain.netlist m)
      (Session.patterns session) (Explain.datalog m) multiplet
  in
  {
    multiplet;
    covered_patterns;
    ignored_patterns = classification.Slat.non_slat;
    score;
  }

let callout_nets r =
  List.sort_uniq compare (List.map (fun f -> f.Fault_list.site) r.multiplet)

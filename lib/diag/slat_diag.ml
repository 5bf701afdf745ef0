type classification = { slat : int list; non_slat : int list }

type result = {
  classification : classification;
  multiplet : Fault_list.fault list;
  covered_patterns : int list;
  score : Scoring.score;
}

(* Failing pattern [fp] is SLAT when [is_slat fp]. *)
let split failing is_slat =
  let slat = ref [] and non_slat = ref [] in
  Array.iteri
    (fun fp p -> if is_slat fp then slat := p :: !slat else non_slat := p :: !non_slat)
    failing;
  { slat = List.rev !slat; non_slat = List.rev !non_slat }

(* Stops at a pattern's first exact explainer: no set is built. *)
let classify m =
  let ncand = Array.length (Explain.candidates m) in
  split (Explain.failing m) (fun fp ->
      let rec exact c = c < ncand && (Explain.exact m c fp || exact (c + 1)) in
      exact 0)

let slat_fraction t =
  let ns = List.length t.slat and nn = List.length t.non_slat in
  if ns + nn = 0 then 1.0 else float_of_int ns /. float_of_int (ns + nn)

let diagnose m =
  let cand = Explain.candidates m in
  let ncand = Array.length cand in
  let failing = Explain.failing m in
  let nfp = Array.length failing in
  (* exact.(c) bit fp: candidate c exactly explains failing pattern fp;
     a pattern is SLAT when some candidate does. *)
  let slat_set = Bitvec.create nfp in
  let exact =
    Array.init ncand (fun c ->
        let bv = Bitvec.create nfp in
        for fp = 0 to nfp - 1 do
          if Explain.exact m c fp then Bitvec.set bv fp true
        done;
        Bitvec.union_into ~dst:slat_set bv;
        bv)
  in
  (* Greedy cover of the SLAT patterns. *)
  let uncovered = Bitvec.copy slat_set in
  let chosen = ref [] in
  let continue = ref true in
  while !continue && List.length !chosen < Noassume.max_multiplet do
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
    let scorer = Scoring.create (Explain.session m) (Explain.datalog m) in
    Scoring.evaluate_multiplet scorer multiplet
  in
  { classification = split failing (Bitvec.get slat_set); multiplet; covered_patterns; score }

let callout_nets r =
  List.sort_uniq compare (List.map (fun f -> f.Fault_list.site) r.multiplet)

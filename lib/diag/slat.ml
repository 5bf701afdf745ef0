type t = { slat : int list; non_slat : int list }

let classify m =
  let ncand = Array.length (Explain.candidates m) in
  let slat = ref [] in
  let non_slat = ref [] in
  Array.iteri
    (fun fp p ->
      let rec exact c = c < ncand && (Explain.exact m c fp || exact (c + 1)) in
      if exact 0 then slat := p :: !slat else non_slat := p :: !non_slat)
    (Explain.failing m);
  { slat = List.rev !slat; non_slat = List.rev !non_slat }

let slat_fraction t =
  let ns = List.length t.slat and nn = List.length t.non_slat in
  if ns + nn = 0 then 1.0 else float_of_int ns /. float_of_int (ns + nn)

(* All 63 usable bits of an OCaml int set: exactly the representation of
   -1 on a 63-bit tagged integer. *)
let ones = -1

let mask_of_width k =
  assert (k >= 0 && k <= Bitvec.word_bits);
  if k = Bitvec.word_bits then ones else (1 lsl k) - 1

let iter_bits w f =
  let w = ref w in
  while !w <> 0 do
    f (Bitvec.ctz_word !w);
    w := !w land (!w - 1)
  done

type t = { len : int; words : int array }

let word_bits = 63

let nwords len = (len + word_bits - 1) / word_bits

let create len =
  assert (len >= 0);
  { len; words = Array.make (max 1 (nwords len)) 0 }

let length t = t.len

let check_index t i = if i < 0 || i >= t.len then invalid_arg "Bitvec: index out of bounds"

let get t i =
  check_index t i;
  t.words.(i / word_bits) lsr (i mod word_bits) land 1 = 1

let set t i b =
  check_index t i;
  let w = i / word_bits and m = 1 lsl (i mod word_bits) in
  if b then t.words.(w) <- t.words.(w) lor m else t.words.(w) <- t.words.(w) land lnot m

(* Mask of valid bits in the final word, so that whole-word operations
   never create phantom set bits past [len]. *)
let last_mask t =
  let r = t.len mod word_bits in
  if r = 0 && t.len > 0 then -1
  else if t.len = 0 then 0
  else (1 lsl r) - 1

let fill t b =
  let v = if b then -1 else 0 in
  Array.fill t.words 0 (Array.length t.words) v;
  if b then begin
    let n = Array.length t.words in
    t.words.(n - 1) <- t.words.(n - 1) land last_mask t
  end

let num_words t = Array.length t.words
let word t i = t.words.(i)
let words t = t.words

let copy t = { len = t.len; words = Array.copy t.words }

let equal a b = a.len = b.len && a.words = b.words

(* Branch-free SWAR popcount over the 63-bit int.  The masks are the
   usual 64-bit constants truncated to 63 bits, so bit 62 forms a field
   on its own at every step; the final multiply sums the byte counts
   into bits 56-62, which hold any total up to 63 exactly (arithmetic is
   mod 2^63, so the low bits of the product are exact). *)
let popcount_word w =
  let w = w - ((w lsr 1) land 0x5555_5555_5555_5555) in
  let w = (w land 0x3333_3333_3333_3333) + ((w lsr 2) land 0x3333_3333_3333_3333) in
  let w = (w + (w lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (w * 0x0101_0101_0101_0101) lsr 56

(* Branchy binary search beats the naive shift-one-at-a-time loop by a
   large factor on sparse high bits and is portable (no unboxed int64
   multiply for a de Bruijn table on the 63-bit tagged int). *)
let ctz_word w =
  let n = ref 0 and v = ref w in
  if !v land 0xFFFFFFFF = 0 then begin
    n := !n + 32;
    v := !v lsr 32
  end;
  if !v land 0xFFFF = 0 then begin
    n := !n + 16;
    v := !v lsr 16
  end;
  if !v land 0xFF = 0 then begin
    n := !n + 8;
    v := !v lsr 8
  end;
  if !v land 0xF = 0 then begin
    n := !n + 4;
    v := !v lsr 4
  end;
  if !v land 0x3 = 0 then begin
    n := !n + 2;
    v := !v lsr 2
  end;
  if !v land 0x1 = 0 then incr n;
  !n

let popcount t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.words

(* Word-level: the end words are masked ([-1 lsl a] keeps bits a..62,
   [-1 lsr (62 - b)] bits 0..b), the words between are counted whole. *)
let count_range t lo hi =
  if lo < 0 || hi > t.len || lo > hi then invalid_arg "Bitvec.count_range";
  if lo = hi then 0
  else begin
    let wl = lo / word_bits and wh = (hi - 1) / word_bits in
    let lo_mask = -1 lsl (lo mod word_bits)
    and hi_mask = -1 lsr (word_bits - 1 - ((hi - 1) mod word_bits)) in
    if wl = wh then popcount_word (t.words.(wl) land lo_mask land hi_mask)
    else begin
      let n = ref (popcount_word (t.words.(wl) land lo_mask)) in
      for i = wl + 1 to wh - 1 do
        n := !n + popcount_word t.words.(i)
      done;
      !n + popcount_word (t.words.(wh) land hi_mask)
    end
  end

let check_same a b = if a.len <> b.len then invalid_arg "Bitvec: length mismatch"

let union_into ~dst src =
  check_same dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) lor src.words.(i)
  done

let inter_into ~dst src =
  check_same dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land src.words.(i)
  done

let diff_into ~dst src =
  check_same dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land lnot src.words.(i)
  done

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let iter_set t f =
  for wi = 0 to Array.length t.words - 1 do
    let w = ref t.words.(wi) in
    while !w <> 0 do
      f ((wi * word_bits) + ctz_word !w);
      w := !w land (!w - 1)
    done
  done

let to_list t =
  let acc = ref [] in
  iter_set t (fun i -> acc := i :: !acc);
  List.rev !acc

let of_list len idxs =
  let t = create len in
  List.iter (fun i -> set t i true) idxs;
  t

let pp ppf t =
  for i = 0 to t.len - 1 do
    Format.pp_print_char ppf (if get t i then '1' else '0')
  done

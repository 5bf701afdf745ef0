(* Row-major, one '0'/'1' character per (pattern, PI): pattern [p]'s
   bits are [rows.[p * npis] .. rows.[p * npis + npis - 1]], the text
   form without its newlines.  One buffer, not an array per pattern:
   parsing a set allocates one block, and nothing in it is scanned or
   promoted by the GC. *)
type t = { npis : int; count : int; rows : Bytes.t; origin : string option }

let check_width npis a =
  if Array.length a <> npis then invalid_arg "Pattern: PI vector width mismatch"

let char_of b = if b then '1' else '0'

let of_array ~npis data =
  Array.iter (check_width npis) data;
  let rows = Bytes.create (Array.length data * npis) in
  Array.iteri
    (fun p a -> Array.iteri (fun i b -> Bytes.set rows ((p * npis) + i) (char_of b)) a)
    data;
  { npis; count = Array.length data; rows; origin = None }

let of_list ~npis l = of_array ~npis (Array.of_list l)

(* Pattern by pattern, PI by PI: the draw order of a set of arrays. *)
let random rng ~npis ~count =
  let rows = Bytes.init (count * npis) (fun _ -> char_of (Rng.bool rng)) in
  { npis; count; rows; origin = None }

let exhaustive ~npis =
  if npis > 20 then invalid_arg "Pattern.exhaustive: too many inputs";
  let count = 1 lsl npis in
  let bit j = (j / npis) land (1 lsl (j mod npis)) <> 0 in
  let rows = Bytes.init (count * npis) (fun j -> char_of (bit j)) in
  { npis; count; rows; origin = None }

let count t = t.count
let npis t = t.npis

let get t p i =
  if p < 0 || p >= t.count || i < 0 || i >= t.npis then invalid_arg "index out of bounds";
  Bytes.get t.rows ((p * t.npis) + i) = '1'

let pattern t p =
  if p < 0 || p >= t.count then invalid_arg "index out of bounds";
  Array.init t.npis (get t p)

let append a b =
  if a.npis <> b.npis then invalid_arg "Pattern.append: PI count mismatch";
  let rows = Bytes.cat a.rows b.rows in
  { npis = a.npis; count = a.count + b.count; rows; origin = None }

type block = { base : int; width : int; pi_words : int array }

let word_bits = Bitvec.word_bits

let blocks t =
  let n = count t in
  let nblocks = (n + word_bits - 1) / word_bits in
  List.init nblocks (fun bi ->
      let base = bi * word_bits in
      let width = min word_bits (n - base) in
      let pi_words =
        Array.init t.npis (fun i ->
            let w = ref 0 in
            for k = width - 1 downto 0 do
              let bit = Bytes.get t.rows (((base + k) * t.npis) + i) = '1' in
              w := (!w lsl 1) lor Bool.to_int bit
            done;
            !w)
      in
      { base; width; pi_words })

let to_string t p = String.init t.npis (fun i -> char_of (get t p i))

let to_text t =
  let width = t.npis + 1 in
  let b = Bytes.create (t.count * width) in
  for p = 0 to t.count - 1 do
    Bytes.blit t.rows (p * t.npis) b (p * width) t.npis;
    Bytes.set b ((p * width) + t.npis) '\n'
  done;
  Bytes.unsafe_to_string b

(* What [String.trim] strips. *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* One pass over the lines: each is trimmed, a blank one skipped, and
   the rest checked in order — its width against the first line's,
   then its characters — and copied into the rows. *)
let of_text text =
  let len = String.length text in
  let rows = Buffer.create len in
  let npis = ref (-1) and count = ref 0 and pos = ref 0 in
  while !pos <= len do
    let stop = Option.value (String.index_from_opt text !pos '\n') ~default:len in
    let a = ref !pos and b = ref stop in
    while !a < !b && is_blank text.[!a] do
      incr a
    done;
    while !b > !a && is_blank text.[!b - 1] do
      decr b
    done;
    let width = !b - !a in
    if width > 0 then begin
      if !npis < 0 then npis := width
      else if width <> !npis then invalid_arg "Pattern.of_text: ragged pattern lines";
      for j = !a to !b - 1 do
        match text.[j] with
        | '0' | '1' -> ()
        | c -> invalid_arg (Printf.sprintf "Pattern.of_text: bad character %c" c)
      done;
      Buffer.add_substring rows text !a width;
      incr count
    end;
    pos := stop + 1
  done;
  { npis = max 0 !npis; count = !count; rows = Buffer.to_bytes rows; origin = None }

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
    match of_text text with
    | pats -> Ok pats
    | exception Invalid_argument reason -> Error (path ^ ": " ^ reason))

let with_origin origin t = { t with origin = Some origin }

let origin t =
  match t.origin with
  | Some o -> o
  | None -> "patterns " ^ Digest.to_hex (Digest.string (to_text t))

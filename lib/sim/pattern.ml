type t = { npis : int; data : bool array array; origin : string option }

let check_width npis a =
  if Array.length a <> npis then invalid_arg "Pattern: PI vector width mismatch"

let of_array ~npis data =
  Array.iter (check_width npis) data;
  { npis; data = Array.map Array.copy data; origin = None }

let of_list ~npis l = of_array ~npis (Array.of_list l)

let random rng ~npis ~count =
  {
    npis;
    data = Array.init count (fun _ -> Array.init npis (fun _ -> Rng.bool rng));
    origin = None;
  }

let exhaustive ~npis =
  if npis > 20 then invalid_arg "Pattern.exhaustive: too many inputs";
  {
    npis;
    data =
      Array.init (1 lsl npis) (fun v ->
          Array.init npis (fun i -> v land (1 lsl i) <> 0));
    origin = None;
  }

let count t = Array.length t.data
let npis t = t.npis

let get t p i = t.data.(p).(i)
let pattern t p = Array.copy t.data.(p)

let append a b =
  if a.npis <> b.npis then invalid_arg "Pattern.append: PI count mismatch";
  { npis = a.npis; data = Array.append a.data b.data; origin = None }

let sub t off len = { npis = t.npis; data = Array.sub t.data off len; origin = None }

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
              w := (!w lsl 1) lor if t.data.(base + k).(i) then 1 else 0
            done;
            !w)
      in
      { base; width; pi_words })

let to_string t p =
  String.init t.npis (fun i -> if get t p i then '1' else '0')

let to_text t =
  let width = t.npis + 1 in
  let b = Bytes.create (count t * width) in
  Array.iteri
    (fun p row ->
      Array.iteri (fun i v -> Bytes.set b ((p * width) + i) (if v then '1' else '0')) row;
      Bytes.set b ((p * width) + t.npis) '\n')
    t.data;
  Bytes.unsafe_to_string b

let of_text text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> of_list ~npis:0 []
  | first :: _ ->
    let npis = String.length first in
    let vector line =
      if String.length line <> npis then
        invalid_arg "Pattern.of_text: ragged pattern lines";
      Array.init npis (fun i ->
          match line.[i] with
          | '0' -> false
          | '1' -> true
          | c -> invalid_arg (Printf.sprintf "Pattern.of_text: bad character %c" c))
    in
    of_list ~npis (List.map vector lines)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
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

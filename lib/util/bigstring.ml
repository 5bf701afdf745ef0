type t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n : t = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n
let empty = create 0

external get64u_ne : t -> int -> int64 = "%caml_bigstring_get64u"
external get64_ne : t -> int -> int64 = "%caml_bigstring_get64"
external set64u_ne : t -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bytes_get64u_ne : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bytes_set64u_ne : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let get_int64_le b i = if Sys.big_endian then swap64 (get64_ne b i) else get64_ne b i

let check name ~src_len src_pos ~dst_len dst_pos len =
  if
    len < 0 || src_pos < 0 || src_pos > src_len - len || dst_pos < 0
    || dst_pos > dst_len - len
  then invalid_arg name

(* Eight bytes per step, native order on both sides, then the tail a
   byte at a time. *)
let blit_from_bytes src src_pos (dst : t) dst_pos len =
  check "Bigstring.blit_from_bytes" ~src_len:(Bytes.length src) src_pos
    ~dst_len:(Bigarray.Array1.dim dst) dst_pos len;
  let words = len / 8 in
  for i = 0 to words - 1 do
    set64u_ne dst (dst_pos + (8 * i)) (bytes_get64u_ne src (src_pos + (8 * i)))
  done;
  for i = 8 * words to len - 1 do
    Bigarray.Array1.unsafe_set dst (dst_pos + i) (Bytes.unsafe_get src (src_pos + i))
  done

let blit_to_bytes (src : t) src_pos dst dst_pos len =
  check "Bigstring.blit_to_bytes" ~src_len:(Bigarray.Array1.dim src) src_pos
    ~dst_len:(Bytes.length dst) dst_pos len;
  let words = len / 8 in
  for i = 0 to words - 1 do
    bytes_set64u_ne dst (dst_pos + (8 * i)) (get64u_ne src (src_pos + (8 * i)))
  done;
  for i = 8 * words to len - 1 do
    Bytes.unsafe_set dst (dst_pos + i) (Bigarray.Array1.unsafe_get src (src_pos + i))
  done

let of_bytes b =
  let t = create (Bytes.length b) in
  blit_from_bytes b 0 t 0 (Bytes.length b);
  t

let sub_string b pos len =
  let s = Bytes.create len in
  blit_to_bytes b pos s 0 len;
  Bytes.unsafe_to_string s

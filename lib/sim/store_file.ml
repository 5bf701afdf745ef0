(* The design image: envelope, checksum, section table and atomic
   publication.  See the interface for the layout. *)

exception Invalid

let c_saves = Obs.counter "store.saves"
let c_loads = Obs.counter "store.loads"
let c_rejects = Obs.counter "store.rejects"

let magic = "MDDIMAGE"

(* Bump when the layout or any section's encoding changes: an image an
   older binary wrote must be rejected, not misdecoded. *)
let version = 1

type section = { ints : int array; off : int; len : int }
type image = { data : Bigstring.t; sections : section array }

let netlist_section = 0
let tests_section = 1
let signatures_section = 2
let nsections = 3

(* magic, version, key, s1, s2: everything before the checksummed
   bytes. *)
let header_len = 48

let path ~dir ~source =
  let hex = Digest.to_hex (Digest.string source) in
  Filename.concat dir (Printf.sprintf "design-%s.mddimg" (String.sub hex 0 12))

let key_of ~source ~origin = Digest.string (source ^ "\000" ^ origin)
let key net pats = key_of ~source:(Netlist.source net) ~origin:(Pattern.origin pats)

(* --- Checksum -------------------------------------------------------- *)

(* Two sums modulo the Mersenne prime p = 2^61 - 1 over the 32-bit
   words w_1 .. w_m of the length and the bytes: s1 = sum w_i and
   s2 = sum of s1's running values = sum (m + 1 - i) w_i.  Each word is
   below 2^32 < p, and m < p for any file, so:

   - a change confined to one word — every single-bit flip among them —
     moves s1 by d with 0 < |d| < 2^32 < p, never a multiple of p;
   - a swap of two unequal words w_i, w_j (i < j) leaves s1 and moves
     s2 by (j - i)(w_i - w_j); both factors are nonzero and smaller
     than p in magnitude, and p is prime, so the product is not a
     multiple of p;
   - a truncation or extension changes the length word; the loader
     also requires the section table to add up to the file size.

   MD5 over the same bytes costs several times as much, and a restarted
   process checks the whole image on every start. *)
let p61 = (1 lsl 61) - 1

(* [x] modulo p up to a small excess: 2^61 = 1 (mod p), so the bits
   above 61 fold onto the low ones.  Exact for any [x] below 2^63 read
   as unsigned — native ints wrap modulo 2^63 and [lsr] is logical —
   and the result is below 2^61 + 4. *)
let[@inline] fold x = (x land p61) + (x lsr 61)

let[@inline] canonical x = if x >= p61 then x - p61 else x

(* One word into the sums. *)
let step (s1, s2) w =
  let a = fold (s1 + w) in
  (a, fold (s2 + a))

(* [4 x] modulo p up to a small excess, for [x] below 2^61 + 4: with
   [x = a + b 2^59], [4 x = 4 a + b 2^61 = 4 a + b (mod p)], and [b] is
   at most 4, so the result is below 2^61 + 4. *)
let[@inline] times4 x = ((x land ((1 lsl 59) - 1)) lsl 2) + (x lsr 59)

(* The loop takes two 64-bit loads, four words [w1 .. w4], at once: s1
   gains [w1 + w2 + w3 + w4] and s2 the four running values of s1,
   [4 s1 + 4 w1 + 3 w2 + 2 w3 + w4].  [s1] and [s2] are below 2^61 + 4
   and each word below 2^32, so each sum stays below 2^63 before its
   one fold, and the two chains only meet through [s1].  An odd last
   load is two words, by the same rule. *)
let checksum (b : Bigstring.t) ~pos ~len =
  if pos < 0 || len < 0 || pos > Bigarray.Array1.dim b - len then
    invalid_arg "Store_file.checksum";
  let s1, s2 = step (step (0, 0) (len land 0xffff_ffff)) (len lsr 32) in
  let s1 = ref s1 and s2 = ref s2 in
  let full = len / 8 in
  for i = 0 to (full / 2) - 1 do
    let x = Bigstring.get64u_le b (pos + (16 * i))
    and y = Bigstring.get64u_le b (pos + (16 * i) + 8) in
    let w1 = Int64.to_int x land 0xffff_ffff
    and w2 = Int64.to_int (Int64.shift_right_logical x 32)
    and w3 = Int64.to_int y land 0xffff_ffff
    and w4 = Int64.to_int (Int64.shift_right_logical y 32) in
    let s = !s1 in
    s2 := fold (!s2 + times4 s + (4 * w1) + (3 * w2) + (2 * w3) + w4);
    s1 := fold (s + w1 + w2 + w3 + w4)
  done;
  if full land 1 = 1 then begin
    let x = Bigstring.get64u_le b (pos + (8 * (full - 1))) in
    let lo = Int64.to_int x land 0xffff_ffff
    and hi = Int64.to_int (Int64.shift_right_logical x 32) in
    let s = !s1 in
    s2 := fold (!s2 + (2 * s) + (2 * lo) + hi);
    s1 := fold (s + lo + hi)
  end;
  let rest = len - (8 * full) in
  let s1, s2 =
    if rest = 0 then (!s1, !s2)
    else begin
      let x = ref 0 in
      for j = rest - 1 downto 0 do
        x := (!x lsl 8) lor Char.code (Bigarray.Array1.get b (pos + (8 * full) + j))
      done;
      step (step (!s1, !s2) (!x land 0xffff_ffff)) (!x lsr 32)
    end
  in
  (canonical s1, canonical s2)

(* --- Save ------------------------------------------------------------ *)

let save ~path ~key net pats ~signatures =
  let netlist =
    let buf = Buffer.create (1 lsl 16) in
    Netlist.encode buf net;
    Buffer.contents buf
  in
  let sections =
    [|
      ([||], netlist);
      ([| Pattern.npis pats; Pattern.count pats |], Pattern.to_text pats);
      Option.value signatures ~default:([||], "");
    |]
  in
  let table = Buffer.create 128 in
  let add v = Buffer.add_int64_le table (Int64.of_int v) in
  add (Array.length sections);
  Array.iter
    (fun (ints, bytes) ->
      add (Array.length ints);
      Array.iter add ints;
      add (String.length bytes))
    sections;
  let body_len =
    Array.fold_left
      (fun acc (_, bytes) -> acc + String.length bytes)
      (Buffer.length table) sections
  in
  let data = Bytes.create (header_len + body_len) in
  Bytes.blit_string magic 0 data 0 8;
  Bytes.set_int64_le data 8 (Int64.of_int version);
  Bytes.blit_string key 0 data 16 16;
  Buffer.blit table 0 data header_len (Buffer.length table);
  ignore
    (Array.fold_left
       (fun at (_, bytes) ->
         Bytes.blit_string bytes 0 data at (String.length bytes);
         at + String.length bytes)
       (header_len + Buffer.length table) sections
      : int);
  let s1, s2 = checksum (Bigstring.of_bytes data) ~pos:header_len ~len:body_len in
  Bytes.set_int64_le data 32 (Int64.of_int s1);
  Bytes.set_int64_le data 40 (Int64.of_int s2);
  let dir = Filename.dirname path in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  try
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let oc = open_out_bin tmp in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_bytes oc data);
    (* Atomic publication: a concurrent loader sees the old complete
       file or the new complete file, never a half-written one. *)
    Sys.rename tmp path;
    if Obs.enabled () then Obs.incr c_saves;
    true
  with Sys_error _ | Unix.Unix_error _ ->
    (try Sys.remove tmp with Sys_error _ -> ());
    false

(* --- Load ------------------------------------------------------------ *)

let reject () = if Obs.enabled () then Obs.incr c_rejects

(* The section table, bounds-checked: every count is read from the
   file, so each one is range-checked before it sizes anything, and the
   sections must end exactly at the end of the file. *)
let sections data =
  let len = Bigarray.Array1.dim data in
  let pos = ref header_len in
  let word () =
    if !pos > len - 8 then raise Invalid;
    let v = Int64.to_int (Bigstring.get_int64_le data !pos) in
    pos := !pos + 8;
    v
  in
  let n = word () in
  if n <> nsections then raise Invalid;
  let table =
    Array.init n (fun _ ->
        let nints = word () in
        if nints < 0 || nints > 8 then raise Invalid;
        let ints = Array.init nints (fun _ -> word ()) in
        let slen = word () in
        if slen < 0 || slen > len then raise Invalid;
        (ints, slen))
  in
  let at = ref !pos in
  let sections =
    Array.map
      (fun (ints, slen) ->
        let off = !at in
        if off > len - slen then raise Invalid;
        at := off + slen;
        { ints; off; len = slen })
      table
  in
  if !at <> len then raise Invalid;
  sections

(* The file mapped read-only and private, or [None] when it cannot be
   opened or mapped (no file is a cold store, not a rejection).  A file
   shorter than the header is not mapped — [mmap] refuses length 0 —
   but read as empty, which the header check rejects.  The descriptor
   is closed at once; the mapping outlives it until the buffer is
   collected. *)
let map path =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match (Unix.fstat fd).Unix.st_size with
        | size when size < header_len -> Some Bigstring.empty
        | size -> (
          match Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |] with
          | g -> Some (Bigarray.array1_of_genarray g : Bigstring.t)
          | exception
              (Unix.Unix_error _ | Sys_error _ | Failure _ | Invalid_argument _) ->
            None)
        | exception Unix.Unix_error _ -> None)

let load ~path ~key decode =
  match map path with
  | None -> None
  | Some data -> (
    try
      let len = Bigarray.Array1.dim data in
      if len < header_len then raise Invalid;
      if Bigstring.sub_string data 0 8 <> magic then raise Invalid;
      if Bigstring.get_int64_le data 8 <> Int64.of_int version then raise Invalid;
      if Bigstring.sub_string data 16 16 <> key then raise Invalid;
      let s1, s2 = checksum data ~pos:header_len ~len:(len - header_len) in
      if
        Bigstring.get_int64_le data 32 <> Int64.of_int s1
        || Bigstring.get_int64_le data 40 <> Int64.of_int s2
      then raise Invalid;
      let v = decode { data; sections = sections data } in
      if Obs.enabled () then Obs.incr c_loads;
      Some v
    with Invalid | Invalid_argument _ ->
      reject ();
      None)

(* --- Sections -------------------------------------------------------- *)

let decode_netlist ?source image =
  let s = image.sections.(netlist_section) in
  match Netlist.decode ?source image.data ~off:s.off ~len:s.len with
  | Some net -> net
  | None -> raise Invalid

let decode_tests ?origin ~npis image =
  let s = image.sections.(tests_section) in
  if Array.length s.ints <> 2 then raise Invalid;
  let count = s.ints.(1) in
  if
    s.ints.(0) <> npis || npis < 1 || count < 1 || count > s.len
    || s.len <> count * (npis + 1)
  then raise Invalid;
  let b : Bigstring.t = image.data in
  for p = 0 to count - 1 do
    let row = s.off + (p * (npis + 1)) in
    for i = row to row + npis - 1 do
      match Bigarray.Array1.get b i with '0' | '1' -> () | _ -> raise Invalid
    done;
    if Bigarray.Array1.get b (row + npis) <> '\n' then raise Invalid
  done;
  let pats = Pattern.of_text (Bigstring.sub_string b s.off s.len) in
  match origin with Some o -> Pattern.with_origin o pats | None -> pats

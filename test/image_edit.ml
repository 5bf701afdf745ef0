(* Take a design image ([Store_file]) apart and put it back together,
   for the tests that forge one: an edit to a section followed by
   [assemble] recomputes the section table and the checksum, so every
   envelope check passes and only the section's own decoder can refuse
   the file. *)

type t = {
  magic : string;
  version : int;
  key : string;
  sections : (int array * Bytes.t) array;
}

let header_len = 48

let read path = In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string

(* Replace the file the way [Store_file.save] does, temp file + rename:
   a loaded image is a mapping of the file, and an image rewritten in
   place under it would change (or, shorter, fault) what the mapping
   reads. *)
let write path b =
  let tmp = path ^ ".edit" in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_bytes oc b);
  Sys.rename tmp path

let split b =
  let pos = ref header_len in
  let word () =
    let v = Int64.to_int (Bytes.get_int64_le b !pos) in
    pos := !pos + 8;
    v
  in
  let n = word () in
  let table =
    Array.init n (fun _ ->
        let nints = word () in
        let ints = Array.init nints (fun _ -> word ()) in
        (ints, word ()))
  in
  let at = ref !pos in
  {
    magic = Bytes.sub_string b 0 8;
    version = Int64.to_int (Bytes.get_int64_le b 8);
    key = Bytes.sub_string b 16 16;
    sections =
      Array.map
        (fun (ints, len) ->
          let s = Bytes.sub b !at len in
          at := !at + len;
          (ints, s))
        table;
  }

let assemble t =
  let body = Buffer.create 4096 in
  let add v = Buffer.add_int64_le body (Int64.of_int v) in
  add (Array.length t.sections);
  Array.iter
    (fun (ints, bytes) ->
      add (Array.length ints);
      Array.iter add ints;
      add (Bytes.length bytes))
    t.sections;
  Array.iter (fun (_, bytes) -> Buffer.add_bytes body bytes) t.sections;
  let b = Bytes.create (header_len + Buffer.length body) in
  Bytes.blit_string t.magic 0 b 0 8;
  Bytes.set_int64_le b 8 (Int64.of_int t.version);
  Bytes.blit_string t.key 0 b 16 16;
  Buffer.blit body 0 b header_len (Buffer.length body);
  let s1, s2 =
    Store_file.checksum (Bigstring.of_bytes b) ~pos:header_len ~len:(Buffer.length body)
  in
  Bytes.set_int64_le b 32 (Int64.of_int s1);
  Bytes.set_int64_le b 40 (Int64.of_int s2);
  b

(* Edit one section's ints and bytes, then reseal. *)
let reseal_section b i edit =
  let t = split b in
  let sections = Array.copy t.sections in
  sections.(i) <- edit sections.(i);
  assemble { t with sections }

let flip_bit b i bit =
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)))

(* The envelope of every on-disk store: header write, atomic publish and
   the magic/version/key/content-digest checks.  See the interface for
   the layout. *)

exception Invalid

type kind = {
  magic : string;
  version : int;
  saves : Obs.counter;
  loads : Obs.counter;
  rejects : Obs.counter;
}

let path ~dir ~prefix ~ext net =
  let buf = Buffer.create 4096 in
  Netlist.add_structure buf net;
  let hex = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  Filename.concat dir (Printf.sprintf "%s-%s.%s" prefix (String.sub hex 0 12) ext)

let header_len nints = 8 + 8 + 16 + 16 + (8 * nints)

let save kind ~path ~key ~ints body =
  let nints = Array.length ints in
  let header = Bytes.create (header_len nints) in
  Bytes.blit_string kind.magic 0 header 0 8;
  Bytes.set_int64_le header 8 (Int64.of_int kind.version);
  Bytes.blit_string key 0 header 16 16;
  Bytes.blit_string (Digest.string body) 0 header 32 16;
  Array.iteri (fun i v -> Bytes.set_int64_le header (48 + (8 * i)) (Int64.of_int v)) ints;
  let dir = Filename.dirname path in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  try
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_bytes oc header;
        output_string oc body);
    (* Atomic publication: a concurrent loader sees the old complete
       file or the new complete file, never a half-written one. *)
    Sys.rename tmp path;
    if Obs.enabled () then Obs.incr kind.saves;
    true
  with Sys_error _ | Unix.Unix_error _ ->
    (try Sys.remove tmp with Sys_error _ -> ());
    false

(* The header and the body are read separately, each with one read
   into its own buffer, so the decoder gets a body nothing else holds
   and may keep it.  A file shorter than the header reads as a short
   header and is rejected by the first check. *)
let load kind ~path ~key ~nints decode =
  let hlen = header_len nints in
  match
    if not (Sys.file_exists path) then None
    else
      let ic = open_in_bin path in
      Some
        (Fun.protect
           ~finally:(fun () -> close_in_noerr ic)
           (fun () ->
             let len = in_channel_length ic in
             let header = really_input_string ic (min len hlen) in
             let body = Bytes.create (max 0 (len - hlen)) in
             really_input ic body 0 (Bytes.length body);
             (header, body)))
  with
  | None -> None (* a cold store, not a rejection *)
  | exception Sys_error _ -> None
  | Some (header, body) -> (
    try
      if String.length header < hlen then raise Invalid;
      if String.sub header 0 8 <> kind.magic then raise Invalid;
      if String.get_int64_le header 8 <> Int64.of_int kind.version then raise Invalid;
      if String.sub header 16 16 <> key then raise Invalid;
      if Digest.bytes body <> String.sub header 32 16 then raise Invalid;
      let ints =
        Array.init nints (fun i ->
            Int64.to_int (String.get_int64_le header (48 + (8 * i))))
      in
      let v = decode ints body in
      if Obs.enabled () then Obs.incr kind.loads;
      Some v
    with Invalid | Invalid_argument _ ->
      if Obs.enabled () then Obs.incr kind.rejects;
      None)

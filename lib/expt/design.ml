(* The design a diagnosis runs on, and the design image's load-or-build
   rule: find the image by what the run names, decode or build, create
   the session, then adopt the image's arena or sweep it and save. *)

type circuit = File of string | Named of string | Built of Netlist.t

let unknown_circuit name =
  Printf.sprintf "unknown circuit %S (try: %s)" name
    (String.concat ", " (Generators.suite_names @ List.map fst (Generators.tiers ())))

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error msg -> Error msg

let is_verilog path = Filename.check_suffix path ".v"

(* The store key of a netlist file: the digest of its bytes. *)
let file_source path text =
  if is_verilog path then Verilog_io.source_key text else Bench_io.source_key text

let parse path text =
  let parse_string =
    if is_verilog path then Verilog_io.parse_string else Bench_io.parse_string
  in
  match parse_string text with
  | net -> Ok (Netlist.with_source (file_source path text) net)
  | exception (Bench_io.Parse_error (line, msg) | Verilog_io.Parse_error (line, msg)) ->
    Error (Printf.sprintf "%s:%d: %s" path line msg)

(* A netlist file's bytes, read when first forced: the image lookup
   digests them and a build on a miss parses them, so one read serves
   both.  Never forced for a circuit that is not a file. *)
let file_text = function
  | File path -> lazy (read path)
  | Named _ | Built _ -> lazy (Error "not a netlist file")

let build text = function
  | File path -> Result.bind (Lazy.force text) (parse path)
  | Named name -> (
    (* Suite first, then the large benchmark tiers (rnd10k/rnd50k and
       vendored .bench circuits).  Both are lazy: a lookup builds only
       the circuit it names, and an unknown name builds none — the
       error lists names only. *)
    match Generators.find_suite name with
    | Some net -> Ok net
    | None -> (
      match Generators.find_tier name with
      | Some net -> Ok net
      | None -> Error (unknown_circuit name)))
  | Built net -> Ok net

let load_circuit circuit = build (file_text circuit) circuit

(* The [Netlist.source] of the circuit [build] would build, found
   without building it: a netlist file's content digest, or the suite
   or tier generator's key. *)
let source text = function
  | File path -> Result.map (file_source path) (Lazy.force text)
  | Named name ->
    Option.to_result ~none:(unknown_circuit name) (Generators.source_key name)
  | Built net -> Ok (Netlist.source net)

let check_width path net pats =
  if Pattern.npis pats <> Netlist.num_pis net then
    Error
      (Printf.sprintf "%s: pattern width %d does not match circuit PI count %d" path
         (Pattern.npis pats) (Netlist.num_pis net))
  else Ok pats

let parse_patterns path = Obs.phase "pattern.parse" (fun () -> Pattern.read_file path)

let load_patterns net = function
  | Some path -> Result.bind (parse_patterns path) (check_width path net)
  | None -> Ok (Campaign.test_set net)

(* The session over a netlist and its set, given the image they came
   from ([None]: no store, no file or a rejected one).  Without a store
   the arena starts empty.  With one it ends whole: a valid image
   publishes it with zero simulation; otherwise the pool is swept and
   the image (re)written, so the next process adopts. *)
let create ?store_dir image net pats =
  let session = Session.create net pats in
  (match store_dir with
  | None -> ()
  | Some dir ->
    let cache = Option.get (Session.cache session) in
    let adopted =
      match image with
      | Some img -> Obs.phase "store.adopt" (fun () -> Sig_cache.adopt cache img)
      | None -> false
    in
    if not adopted then begin
      ignore (Session.prewarm session : int);
      Obs.phase "store.save" (fun () -> ignore (Sig_cache.save_frozen ~dir cache : bool))
    end);
  session

let session ?store_dir circuit ~patterns =
  let ( let* ) = Result.bind in
  let* given =
    match patterns with
    | Some path -> Result.map (fun pats -> Some (path, pats)) (parse_patterns path)
    | None -> Ok None
  in
  let origin =
    match given with Some (_, pats) -> Pattern.origin pats | None -> Campaign.atpg_origin
  in
  (* The image is looked up by what the run names — the circuit's
     source and the test set's origin — before anything is built, and
     read once: a hit decodes the netlist (and the ATPG set) from it. *)
  let lookup dir source =
    Obs.phase "store.load" (fun () ->
        Store_file.load ~path:(Store_file.path ~dir ~source)
          ~key:(Store_file.key_of ~source ~origin) (fun image ->
            let net = Store_file.decode_netlist ~source image in
            let stored =
              match given with
              | Some _ -> None
              | None ->
                Some (Store_file.decode_tests ~origin ~npis:(Netlist.num_pis net) image)
            in
            (net, stored, image)))
  in
  let text = file_text circuit in
  let* net, stored, image =
    Obs.phase "netlist.load" (fun () ->
        let* found =
          match store_dir with
          | None -> Ok None
          | Some dir -> Result.map (lookup dir) (source text circuit)
        in
        match found with
        | Some (net, stored, image) -> Ok (net, stored, Some image)
        | None ->
          Result.map
            (fun net -> (net, None, None))
            (Obs.phase "netlist.build" (fun () -> build text circuit)))
  in
  let* pats =
    match (given, stored) with
    | Some (path, pats), _ -> check_width path net pats
    | None, Some pats -> Ok pats
    | None, None -> Ok (Campaign.test_set net)
  in
  Ok (Obs.phase "session.create" (fun () -> create ?store_dir image net pats))

type t = { meta : (string * string) list; snap : Obs.snapshot }

let capture ~sink ?(meta = []) () =
  { meta = List.sort compare meta; snap = Obs.sink_snapshot sink }

(* Hand-rolled printing rather than an [Obs_json.t] round-trip: the
   report promises byte-stable layout (one entry per line, fixed float
   format), which is simpler to guarantee at the Buffer level. *)
let to_json ?(timings = true) t =
  let buf = Buffer.create 1024 in
  let strf = Printf.bprintf in
  strf buf "{\n  \"version\": 1,\n";
  strf buf "  \"meta\": {";
  List.iteri
    (fun i (k, v) ->
      strf buf "%s\"%s\": \"%s\"" (if i > 0 then ", " else "") (Obs_json.escape k)
        (Obs_json.escape v))
    t.meta;
  strf buf "},\n";
  strf buf "  \"phases\": [";
  List.iteri
    (fun i (p : Obs.phase_stat) ->
      strf buf "%s\n    {\"name\": \"%s\", \"count\": %d" (if i > 0 then "," else "")
        (Obs_json.escape p.p_name) p.p_count;
      if timings then
        strf buf ", \"total_ms\": %.3f, \"gc_major\": %d" (p.p_total_ns /. 1e6)
          p.p_gc_major;
      strf buf "}")
    t.snap.Obs.phases;
  strf buf "%s],\n" (if t.snap.Obs.phases = [] then "" else "\n  ");
  strf buf "  \"counters\": {";
  List.iteri
    (fun i (name, v) ->
      strf buf "%s\n    \"%s\": %d" (if i > 0 then "," else "") (Obs_json.escape name) v)
    t.snap.Obs.counters;
  strf buf "%s},\n" (if t.snap.Obs.counters = [] then "" else "\n  ");
  strf buf "  \"dists\": {";
  List.iteri
    (fun i (d : Obs.dist_stat) ->
      strf buf "%s\n    \"%s\": {\"count\": %d, \"sum\": %d, \"min\": %d, \"max\": %d}"
        (if i > 0 then "," else "")
        (Obs_json.escape d.d_name) d.d_count d.d_sum d.d_min d.d_max)
    t.snap.Obs.dists;
  strf buf "%s}\n}\n" (if t.snap.Obs.dists = [] then "" else "\n  ");
  Buffer.contents buf

let write ?timings ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_json ?timings t))

let to_obs_json ?(timings = true) t =
  let phase (p : Obs.phase_stat) =
    Obs_json.Obj
      ([ ("name", Obs_json.Str p.p_name); ("count", Obs_json.Num (float_of_int p.p_count)) ]
      @
      if timings then
        [
          ("total_ms", Obs_json.Num (Float.round (p.p_total_ns /. 1e3) /. 1e3));
          ("gc_major", Obs_json.Num (float_of_int p.p_gc_major));
        ]
      else [])
  in
  let dist (d : Obs.dist_stat) =
    ( d.d_name,
      Obs_json.Obj
        [
          ("count", Obs_json.Num (float_of_int d.d_count));
          ("sum", Obs_json.Num (float_of_int d.d_sum));
          ("min", Obs_json.Num (float_of_int d.d_min));
          ("max", Obs_json.Num (float_of_int d.d_max));
        ] )
  in
  Obs_json.Obj
    [
      ("version", Obs_json.Num 1.0);
      ("meta", Obs_json.Obj (List.map (fun (k, v) -> (k, Obs_json.Str v)) t.meta));
      ("phases", Obs_json.List (List.map phase t.snap.Obs.phases));
      ( "counters",
        Obs_json.Obj
          (List.map (fun (n, v) -> (n, Obs_json.Num (float_of_int v))) t.snap.Obs.counters)
      );
      ("dists", Obs_json.Obj (List.map dist t.snap.Obs.dists));
    ]

let counters t = t.snap.Obs.counters

let counters_of_json json =
  match Obs_json.member "counters" json with
  | Some (Obs_json.Obj members) ->
    List.filter_map
      (fun (name, v) -> Option.map (fun i -> (name, i)) (Obs_json.int v))
      members
    |> List.sort compare
  | Some _ | None -> []

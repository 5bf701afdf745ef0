(* End-to-end diagnosis benchmark; see README.md.

     run.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--runs R]
     run.exe compare A.json B.json

   Each workload run happens in a child process of its own.  Metric
   names, units, directions and bounds come from BENCHMARK.json; the
   last line on stdout is the JSON result of the invocation. *)

(* --- JSON ----------------------------------------------------------- *)

(* Obs_json's writer rounds numbers to 6 digits; results keep them all. *)
let rec write_json buf (v : Obs_json.t) =
  let add = Buffer.add_string buf in
  let items f l =
    List.iteri
      (fun i x ->
        if i > 0 then add ", ";
        f x)
      l
  in
  match v with
  | Null -> add "null"
  | Bool b -> add (string_of_bool b)
  | Num f when not (Float.is_finite f) -> add "null"
  | Num f when Float.is_integer f && Float.abs f < 1e15 -> add (Printf.sprintf "%.0f" f)
  | Num f -> add (Printf.sprintf "%.17g" f)
  | Str s -> add ("\"" ^ Obs_json.escape s ^ "\"")
  | List l ->
    add "[";
    items (write_json buf) l;
    add "]"
  | Obj l ->
    add "{";
    items
      (fun (k, x) ->
        add ("\"" ^ Obs_json.escape k ^ "\": ");
        write_json buf x)
      l;
    add "}"

let json_string v =
  let buf = Buffer.create 1024 in
  write_json buf v;
  Buffer.contents buf

let get j path =
  List.fold_left (fun j k -> Option.bind j (Obs_json.member k)) (Some j) path

let num_at j path = Option.value (Option.bind (get j path) Obs_json.num) ~default:nan
let str_at j path = Option.value (Option.bind (get j path) Obs_json.str) ~default:""
let list_at j path = Option.value (Option.bind (get j path) Obs_json.list) ~default:[]
let traced run = get run [ "trace" ] = Some (Obs_json.Bool true)

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("benchmark: " ^ msg);
      exit 2)
    fmt

(* --- BENCHMARK.json ------------------------------------------------- *)

type metric = { name : string; unit_ : string; lower_better : bool; bound : float }

type spec = {
  root : string;  (** The checkout: the directory holding BENCHMARK.json. *)
  run_seconds : float;
  end_to_end : metric list;
  per_layer : metric list;
}

(* The nearest BENCHMARK.json up from the working directory: the
   checkout root when run from there, the build tree under dune. *)
let load_spec () =
  let rec find dir =
    let path = Filename.concat dir "BENCHMARK.json" in
    if Sys.file_exists path then (dir, path)
    else if Filename.dirname dir = dir then
      fail "BENCHMARK.json not found above %s" (Sys.getcwd ())
    else find (Filename.dirname dir)
  in
  let root, path = find (Sys.getcwd ()) in
  let j =
    match Obs_json.parse_file path with Ok j -> j | Error e -> fail "%s: %s" path e
  in
  let metrics key =
    List.map
      (fun m ->
        {
          name = str_at m [ "name" ];
          unit_ = str_at m [ "unit" ];
          lower_better = str_at m [ "better" ] = "lower";
          bound = num_at m [ "bound" ];
        })
      (list_at j [ key ])
  in
  {
    root;
    run_seconds = num_at j [ "run_seconds" ];
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

(* --- Arguments ------------------------------------------------------ *)

type args = {
  mutable workloads : string list;
  mutable seed : int;
  mutable seconds : float option;
  mutable trace : bool;
  mutable runs : int;
  mutable smoke : bool;
  mutable result : string;  (** Child only: where to write the run. *)
  mutable rest : string list;
}

let usage =
  "usage: run.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--runs R] \
   [--smoke]\n       run.exe compare A.json B.json"

let parse_args argv =
  let a =
    {
      workloads = [];
      seed = 1;
      seconds = None;
      trace = false;
      runs = 1;
      smoke = false;
      result = "";
      rest = [];
    }
  in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> fail "%s" usage in
  let rec go = function
    | "--workload" :: w :: tl ->
      if Workload.find w = None then fail "unknown workload %s" w;
      a.workloads <- a.workloads @ [ w ];
      go tl
    | "--seed" :: n :: tl ->
      a.seed <- int_of n;
      go tl
    | "--seconds" :: s :: tl ->
      (match float_of_string_opt s with
      | Some f when f > 0. -> a.seconds <- Some f
      | _ -> fail "%s" usage);
      go tl
    | "--trace" :: t :: tl ->
      a.trace <- (match t with "0" -> false | "1" -> true | _ -> fail "%s" usage);
      go tl
    | "--runs" :: n :: tl ->
      a.runs <- max 1 (int_of n);
      go tl
    | "--smoke" :: tl ->
      a.smoke <- true;
      go tl
    | "--result" :: f :: tl ->
      a.result <- f;
      go tl
    | x :: tl when x <> "" && x.[0] <> '-' ->
      a.rest <- a.rest @ [ x ];
      go tl
    | _ :: _ -> fail "%s" usage
    | [] -> ()
  in
  go (List.tl (Array.to_list argv));
  a

let self_exe = Sys.executable_name

(* The CLI is built next to the runner: _build/default/bin. *)
let diagnose_exe =
  Filename.concat (Filename.dirname (Filename.dirname self_exe)) "bin/diagnose.exe"

let out_dir spec = Filename.concat spec.root "benchmark/out"

(* --- Child: one workload run ---------------------------------------- *)

let child spec a =
  let w = Option.get (Workload.find (List.hd a.workloads)) in
  let work = Filename.concat (out_dir spec) ("work-" ^ w.Workload.name) in
  Workload.fresh_dir work;
  let o =
    {
      Workload.seed = a.seed;
      seconds = Option.value a.seconds ~default:spec.run_seconds;
      trace = a.trace;
      smoke = a.smoke;
      work;
    }
  in
  if a.trace then Spans.enable ();
  let r =
    match w.Workload.kind with
    | Workload.Cli -> Cli_load.run w o ~diagnose:diagnose_exe
    | Workload.Volume _ -> Volume_load.run w o ~self_exe
  in
  let layers =
    if a.trace then begin
      Workload.write_file
        (Filename.concat (out_dir spec) ("trace-" ^ w.Workload.name ^ ".json"))
        (json_string (Spans.to_json ()) ^ "\n");
      Workload.layer_values ~traced_dies:r.Workload.traced_dies
        (List.map (fun m -> m.name) spec.per_layer)
    end
    else []
  in
  let diag, success, resolution = r.Workload.timed_quality in
  let metric (name, value, samples) =
    ( name,
      Obs_json.(
        Obj
          [
            ("value", Num value);
            ("n", Num (float_of_int (Array.length samples)));
            ("q1", Num (Workload.quantile samples 0.25));
            ("q3", Num (Workload.quantile samples 0.75));
          ]) )
  in
  Workload.write_file a.result
    (json_string
       Obs_json.(
         Obj
           [
             ("workload", Str w.Workload.name);
             ("seed", Num (float_of_int a.seed));
             ("trace", Bool a.trace);
             ("attempted", Num (float_of_int r.Workload.attempted));
             ("failed", Num (float_of_int r.Workload.failed));
             ("digest", Str r.Workload.digest);
             ("panel_digest", Str r.Workload.panel_digest);
             ( "timed_quality",
               Obj
                 [
                   ("diagnosability", Num diag);
                   ("success_rate", Num success);
                   ("resolution", Num resolution);
                 ] );
             ("metrics", Obj (List.map metric r.Workload.metrics));
             ( "layers",
               Obj (List.map (fun (n, v) -> (n, Obj [ ("value", Num v) ])) layers) );
           ]))

(* --- Parent: run workloads, print, record --------------------------- *)

let run_child spec a w seed =
  let result = Filename.concat (out_dir spec) (w ^ ".run.json") in
  let args =
    [ "child"; "--workload"; w; "--seed"; string_of_int seed; "--result"; result ]
    @ [ "--trace"; (if a.trace then "1" else "0") ]
    @ (match a.seconds with Some s -> [ "--seconds"; Printf.sprintf "%g" s ] | None -> [])
    @ if a.smoke then [ "--smoke" ] else []
  in
  if Sys.file_exists result then Sys.remove result;
  let pid =
    Unix.create_process self_exe
      (Array.of_list (self_exe :: args))
      Unix.stdin Unix.stderr Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> (
    match Obs_json.parse_file result with Ok j -> j | Error e -> fail "%s: %s" result e)
  | _, (Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c) ->
    fail "workload %s failed (%d)" w c

(* A run must list every metric of [metrics] under [key], and no other. *)
let check_names run key metrics =
  let listed =
    match get run [ key ] with Some (Obs_json.Obj l) -> List.map fst l | _ -> []
  in
  let names = List.map (fun m -> m.name) metrics in
  List.iter
    (fun n -> if not (List.mem n listed) then fail "metric %s not emitted" n)
    names;
  List.iter
    (fun n -> if not (List.mem n names) then fail "metric %s not in BENCHMARK.json" n)
    listed

let print_run spec run =
  Printf.printf "== %s  seed %.0f%s: %.0f dies, %.0f failed, reports %s, panel %s\n"
    (str_at run [ "workload" ]) (num_at run [ "seed" ])
    (if traced run then "  traced" else "")
    (num_at run [ "attempted" ]) (num_at run [ "failed" ]) (str_at run [ "digest" ])
    (str_at run [ "panel_digest" ]);
  List.iter
    (fun m ->
      let f k = num_at run [ "metrics"; m.name; k ] in
      Printf.printf "  %-22s %14.4f %-12s q1 %.4f  q3 %.4f  n=%.0f\n" m.name (f "value")
        m.unit_ (f "q1") (f "q3") (f "n"))
    spec.end_to_end;
  if traced run then
    List.iter
      (fun m ->
        Printf.printf "  %-30s %14.4f %s\n" m.name
          (num_at run [ "layers"; m.name; "value" ])
          m.unit_)
      spec.per_layer

let parent spec a =
  let workloads =
    match a.workloads with
    | [] ->
      List.filter
        (fun w -> not (a.smoke && w = "cli-atpg-rnd1k"))
        (List.map (fun w -> w.Workload.name) Workload.all)
    | l -> l
  in
  if a.smoke then a.trace <- true;
  if not (Sys.file_exists (out_dir spec)) then Unix.mkdir (out_dir spec) 0o755;
  let runs =
    List.concat_map
      (fun w -> List.init a.runs (fun r -> (w, run_child spec a w (a.seed + r))))
      workloads
  in
  List.iter
    (fun (_, run) ->
      check_names run "metrics" spec.end_to_end;
      if a.trace then check_names run "layers" spec.per_layer;
      print_run spec run)
    runs;
  Workload.write_file
    (Filename.concat (out_dir spec) "results.json")
    (json_string (Obs_json.Obj [ ("runs", Obs_json.List (List.map snd runs)) ]) ^ "\n");
  let total k = List.fold_left (fun acc (_, r) -> acc +. num_at r [ k ]) 0. runs in
  let failed = total "failed" in
  (* Each metric is the median over a workload's runs, keyed by name
     for one workload and by workload/name for several. *)
  let key, listing =
    if a.trace then ("layers", spec.per_layer) else ("metrics", spec.end_to_end)
  in
  let metrics =
    List.concat_map
      (fun w ->
        let mine =
          List.filter_map (fun (w', r) -> if w' = w then Some r else None) runs
        in
        List.map
          (fun m ->
            let values = List.map (fun r -> num_at r [ key; m.name; "value" ]) mine in
            ( (match workloads with [ _ ] -> m.name | _ -> w ^ "/" ^ m.name),
              Obs_json.(
                Obj
                  [
                    ("value", Num (Workload.median (Array.of_list values)));
                    ("unit", Str m.unit_);
                  ]) ))
          listing)
      workloads
  in
  print_endline
    (json_string
       Obs_json.(
         Obj
           [
             ("correct", Bool (failed = 0.));
             ("attempted", Num (total "attempted"));
             ("failed", Num failed);
             ("metrics", Obj metrics);
           ]));
  if failed > 0. then exit 1

(* --- compare A.json B.json ------------------------------------------ *)

(* Quartiles as Python's statistics.quantiles(xs, n=4) computes them
   (the "exclusive" method); a single sample is its own quartiles. *)
let quartiles xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0), a.(0))
  else begin
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)
  end

(* Verdict on one metric of one workload: ok, worse, or unresolved when
   either side's quartile spread is wider than the bound — unless every
   run of B beats every run of A. *)
let verdict m va vb =
  let q1a, meda, q3a = quartiles va and q1b, medb, q3b = quartiles vb in
  let spread q1 q3 med = if med = 0. then 0. else (q3 -. q1) /. Float.abs med in
  let better b x = if m.lower_better then b < x else b > x in
  let change = if meda = 0. then 0. else (medb -. meda) /. Float.abs meda in
  let v =
    if Array.for_all (fun b -> Array.for_all (better b) va) vb then "ok"
    else if spread q1a q3a meda > m.bound || spread q1b q3b medb > m.bound then
      "unresolved"
    else if (if m.lower_better then change else -.change) > m.bound then "worse"
    else "ok"
  in
  Printf.printf
    "  %-22s A %.4f [%.4f %.4f]  B %.4f [%.4f %.4f]  %+.1f%%  bound %.0f%%  %s\n" m.name
    meda q1a q3a medb q1b q3b (100. *. change) (100. *. m.bound) v;
  v

let compare_files spec fa fb =
  let load f =
    match Obs_json.parse_file f with
    | Ok j -> List.filter (fun r -> not (traced r)) (list_at j [ "runs" ])
    | Error e -> fail "%s: %s" f e
  in
  let ra = load fa and rb = load fb in
  let worse = ref false in
  List.iter
    (fun (w : Workload.t) ->
      let side rs = List.filter (fun r -> str_at r [ "workload" ] = w.name) rs in
      match (side ra, side rb) with
      | [], _ | _, [] -> ()
      | sa, sb ->
        Printf.printf "== %s (%d vs %d runs)\n" w.name (List.length sa) (List.length sb);
        let panels rs =
          List.sort_uniq compare (List.map (fun r -> str_at r [ "panel_digest" ]) rs)
        in
        if panels sa <> panels sb || List.length (panels sa) <> 1 then
          print_endline "  panel reports differ";
        List.iter
          (fun m ->
            let values rs =
              Array.of_list
                (List.map (fun r -> num_at r [ "metrics"; m.name; "value" ]) rs)
            in
            if verdict m (values sa) (values sb) = "worse" then worse := true)
          spec.end_to_end)
    Workload.all;
  if !worse then exit 1

let () =
  let a = parse_args Sys.argv in
  let spec = load_spec () in
  match a.rest with
  | [ "compare"; fa; fb ] -> compare_files spec fa fb
  | [ "child" ] -> child spec a
  | [ "setup" ] ->
    let _, _, s = Volume_load.setup (Option.get (Workload.find (List.hd a.workloads))) in
    Printf.printf "%.9f\n" s
  | [] -> parent spec a
  | _ -> fail "%s" usage

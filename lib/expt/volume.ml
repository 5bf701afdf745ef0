(* Volume diagnosis: one warm session, many die datalogs.

   The production shape of the paper's flow: a tester produces one
   datalog per failing die, all against one design and one test set.
   Per-die work (explanation matrix, covering, refinement) is far
   smaller than per-problem work (goods, PO reach, signature warm-up),
   so the service loads a [Session.t] once and drains the queue with
   {e request-level} parallelism — one whole diagnosis per domain.
   Every participant's own kernel calls run inline, the caller's
   included ([Parallel]'s nesting rule); a one-worker drain leaves them
   at the process width.

   A die that cannot be read, is empty or does not parse becomes one
   [{"name", "error"}] record; it never stops the rest of the queue.

   Each die runs under a private [Obs.sink], so its run report carries
   its own counters even with many diagnoses in flight, and the sink is
   merged afterwards into the sink the caller bound, if any, so
   `--stats` totals still add up.  Note the per-die cache.hits/misses
   split and the cache.frozen_bytes growth depend on drain order
   (whoever reaches a cold signature first pays the miss and appends
   it to the session's arena); the rendered diagnosis reports do not —
   they are byte-identical to single-shot runs of the same die. *)

type die = { name : string; dlog : Datalog.t }

type die_result = {
  die : string;
  result : Noassume.result;
  text : string;  (* rendered Report.render, the canonical output *)
  report : Run_report.t;  (* per-die counters from the private sink *)
}

type net_rollup = {
  net : string;
  dies_implicated : int;
  minimal_dies : int;
  explained_obs : int;
}

type rollup = {
  dies : int;
  diagnosed : int;
  failed : int;
  minimal : int;
  nets : net_rollup list;
}

type failure = { name : string; error : string }

let c_dies = Obs.counter "volume.dies"
let c_failed = Obs.counter "volume.failed"

(* [with_open_bin] closes the channel on every path: a failed read must
   not leak the descriptor — a volume directory can hold thousands of
   dies, enough to exhaust the fd table mid-load. *)
let read_file path =
  try Ok (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error msg -> Error msg

(* An empty file is a truncated transfer, not a die that passed. *)
let load_die session path =
  let name = Filename.remove_extension (Filename.basename path) in
  let npatterns = Pattern.count (Session.patterns session) in
  let npos = Netlist.num_pos (Session.netlist session) in
  let parsed =
    Result.bind (read_file path) (fun text ->
        if String.trim text = "" then Error (path ^ ": empty datalog")
        else
          try Ok (Datalog.of_text ~npatterns ~npos text)
          with Invalid_argument msg -> Error (path ^ ": " ^ msg))
  in
  match parsed with
  | Ok dlog -> Ok { name; dlog }
  | Error error ->
    if Obs.enabled () then Obs.incr c_failed;
    Error { name; error }

let load_dir session dir =
  let files = Sys.readdir dir in
  Array.sort compare files;
  Array.to_list files
  |> List.filter (fun f -> Filename.check_suffix f ".datalog")
  |> List.map (fun f -> load_die session (Filename.concat dir f))

let diagnose_die ?(config = Noassume.default_config) session d =
  let sink = Obs.sink () in
  let result =
    Obs.with_sink sink (fun () -> Noassume.diagnose_session ~config session d.dlog)
  in
  let report =
    Run_report.capture ~sink
      ~meta:
        [
          ("die", d.name);
          ("cover_complete", string_of_bool result.Noassume.cover_complete);
        ]
      ()
  in
  Obs.merge sink;
  if Obs.enabled () then Obs.incr c_dies;
  {
    die = d.name;
    result;
    text = Report.render (Session.netlist session) result;
    report;
  }

let run ?config ?workers session dies =
  Array.to_list
    (Parallel.map_array ?domains:workers
       (diagnose_die ?config session)
       (Array.of_list dies))

let rollup session results =
  let net = Session.netlist session in
  let tbl : (string, int ref * int ref * int ref) Hashtbl.t = Hashtbl.create 64 in
  let bump name ~minimal obs =
    match Hashtbl.find_opt tbl name with
    | Some (dies, min_dies, tot) ->
      incr dies;
      if minimal then incr min_dies;
      tot := !tot + obs
    | None -> Hashtbl.add tbl name (ref 1, ref (if minimal then 1 else 0), ref obs)
  in
  let minimal_total = ref 0 in
  List.iter
    (fun r ->
      (* Per die: each called-out site once with its explained count;
         confirmed-bridge aggressors count as implicated with no
         explained observations of their own.  A die whose cover the
         exact backend proved minimum strengthens its nets' volume
         signal — a systematic site implicated by provably-minimal
         multiplets is not an artefact of greedy tie-breaking. *)
      let minimal = r.result.Noassume.cover_minimum <> None in
      if minimal then incr minimal_total;
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (c : Noassume.callout) ->
          let name = Netlist.name net c.Noassume.site in
          if not (Hashtbl.mem seen name) then begin
            Hashtbl.add seen name ();
            bump name ~minimal c.Noassume.explained_obs
          end)
        r.result.Noassume.callouts;
      List.iter
        (fun n ->
          let name = Netlist.name net n in
          if not (Hashtbl.mem seen name) then begin
            Hashtbl.add seen name ();
            bump name ~minimal 0
          end)
        (Noassume.callout_nets r.result))
    results;
  let nets =
    Hashtbl.fold
      (fun net (dies, min_dies, obs) acc ->
        { net; dies_implicated = !dies; minimal_dies = !min_dies; explained_obs = !obs }
        :: acc)
      tbl []
    |> List.sort (fun a b ->
           match compare b.dies_implicated a.dies_implicated with
           | 0 -> (
             match compare b.minimal_dies a.minimal_dies with
             | 0 -> (
               match compare b.explained_obs a.explained_obs with
               | 0 -> compare a.net b.net
               | c -> c)
             | c -> c)
           | c -> c)
  in
  {
    dies = List.length results;
    diagnosed = List.length results;
    failed = 0;
    minimal = !minimal_total;
    nets;
  }

(* --- JSON rendering ------------------------------------------------- *)

let json_of_die r =
  let s = r.result.Noassume.score in
  Obs_json.Obj
    [
      ("die", Obs_json.Str r.die);
      ("multiplet_size", Obs_json.Num (float_of_int (List.length r.result.Noassume.multiplet)));
      ("explained", Obs_json.Num (float_of_int s.Scoring.explained));
      ("missed", Obs_json.Num (float_of_int s.Scoring.missed));
      ( "spurious",
        Obs_json.Num (float_of_int (s.Scoring.spurious_fail + s.Scoring.spurious_pass)) );
      ("report", Obs_json.Str r.text);
      (* Deterministic report body (timings off); the cache counters
         still depend on drain order — see the module comment. *)
      ("stats", Run_report.to_obs_json ~timings:false r.report);
    ]

let die_json r = Obs_json.to_string (json_of_die r) ^ "\n"

let error_json f =
  Obs_json.to_string
    (Obs_json.Obj [ ("name", Obs_json.Str f.name); ("error", Obs_json.Str f.error) ])
  ^ "\n"

let rollup_json ru =
  let nets =
    List.map
      (fun n ->
        Obs_json.Obj
          [
            ("net", Obs_json.Str n.net);
            ("dies_implicated", Obs_json.Num (float_of_int n.dies_implicated));
            ("minimal_dies", Obs_json.Num (float_of_int n.minimal_dies));
            ("explained_obs", Obs_json.Num (float_of_int n.explained_obs));
          ])
      ru.nets
  in
  Obs_json.to_string
    (Obs_json.Obj
       [
         ("dies", Obs_json.Num (float_of_int ru.dies));
         ("diagnosed", Obs_json.Num (float_of_int ru.diagnosed));
         ("failed", Obs_json.Num (float_of_int ru.failed));
         ("minimal", Obs_json.Num (float_of_int ru.minimal));
         ("nets", Obs_json.List nets);
       ])
  ^ "\n"

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let write_results ~dir ~failed session results =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  List.iter
    (fun r -> write_file (Filename.concat dir (r.die ^ ".json")) (die_json r))
    results;
  List.iter (fun f -> write_file (Filename.concat dir (f.name ^ ".json")) (error_json f)) failed;
  let nfailed = List.length failed in
  let ru =
    { (rollup session results) with dies = List.length results + nfailed; failed = nfailed }
  in
  write_file (Filename.concat dir "rollup.json") (rollup_json ru);
  ru

(* The volume workloads: an in-process session drained by one client
   that parses a datalog and calls [Volume.diagnose_die] and
   [Volume.die_json] in a closed loop — the shape of --batch-dir and
   --serve without the file I/O.  A second client domain would double
   the throughput on a 2-core host, and also the run-to-run spread: the
   two domains stop together for every minor collection, so a stall on
   either core stalls both. *)

open Workload

(* Circuit, pattern file parse, session create and (frozen workload)
   prewarm, each timed; the sum is one [setup_s] sample.  Returns the
   session and the pattern text. *)
let setup w =
  let net, net_ns = Spans.run "netlist.load" (fun _ -> Dies.circuit w.circuit) in
  let text = random_patterns_text w net in
  let pats, parse_ns = Spans.run "pattern.parse" (fun _ -> Pattern.of_text text) in
  let session, create_ns =
    Spans.run "session.create" (fun _ -> Session.create net pats)
  in
  let prewarm_ns =
    match w.kind with
    | Volume { prewarm = true; _ } ->
      let faults, ns = Spans.run "session.prewarm" (fun _ -> Session.prewarm session) in
      count ~die:(-1) "session.prewarm_faults" (float_of_int faults);
      ns
    | _ -> 0.
  in
  Option.iter
    (fun c ->
      count ~die:(-1) "sig_cache.frozen_bytes" (float_of_int (Sig_cache.frozen_bytes c)))
    (Session.cache session);
  (session, text, (net_ns +. parse_ns +. create_ns +. prewarm_ns) /. 1e9)

(* One timed die: wall seconds, the result or the exception, and the
   id of its [noassume.diagnose] span when traced (else -1). *)
type outcome = { wall : float; res : (Volume.die_result, exn) Stdlib.result; span : int }

let diagnose session (d : Dies.die) ~traced =
  let i = d.Dies.idx in
  let net = Session.netlist session and pats = Session.patterns session in
  let span = ref (-1) in
  let one () =
    if traced then
      fst
        (Spans.run ~die:i "volume.die" (fun root ->
             let vd, _ =
               Spans.run ~parent:root ~die:i "datalog.parse" (fun _ -> vdie net pats d)
             in
             let r, _ =
               Spans.run ~parent:root ~die:i "noassume.diagnose" (fun id ->
                   span := id;
                   Volume.diagnose_die session vd)
             in
             ignore
               (Spans.run ~parent:root ~die:i "report.render" (fun _ ->
                    Volume.die_json r));
             r))
    else begin
      let r = Volume.diagnose_die session (vdie net pats d) in
      ignore (Volume.die_json r);
      r
    end
  in
  let t0 = now_s () in
  let res = try Ok (one ()) with e -> Error e in
  { wall = now_s () -. t0; res; span = !span }

let run w o ~self_exe =
  (* This process's own set-up is the first sample; the others come
     from fresh processes, each timing the same steps. *)
  let session, pats_text, own_setup = setup w in
  let more =
    Array.init
      (setups w o - 1)
      (fun s ->
        let out = Filename.concat o.work (Printf.sprintf "setup-%d.out" s) in
        let code, _, _ = spawn ~env:[] ~out self_exe [ "setup"; "--workload"; w.name ] in
        if code <> 0 then failwith (Printf.sprintf "set-up process exited %d" code);
        float_of_string (String.trim (read_file out)))
  in
  let net = Session.netlist session and pats = Session.patterns session in
  let dies = Dies.make net pats (Rng.create o.seed) (pool_size w o) in
  let lot = match w.kind with Volume { lot = Some n; _ } -> n | _ -> Array.length dies in
  (* Closed loop, one client: the next die starts when the previous one
     is done, until the run's seconds are up.  A lot after the first
     gets a fresh session, which starts cold; the previous one is
     dropped with its lot. *)
  let gc0 = Gc.quick_stat () in
  let t0 = now_s () in
  let rec drain i session acc =
    if i < Array.length dies && (o.smoke || now_s () -. t0 < o.seconds) then begin
      let session =
        if i mod lot = 0 && i > 0 then Session.create net (Pattern.of_text pats_text)
        else session
      in
      let oc = diagnose session dies.(i) ~traced:(o.trace && traced i) in
      drain (i + 1) session (oc :: acc)
    end
    else List.rev acc
  in
  let outcomes = drain 0 session [] in
  let elapsed = now_s () -. t0 in
  let gc1 = Gc.quick_stat () in
  let rss = peak_rss_mb () in
  let n = List.length outcomes in
  let per_die x = x /. float_of_int (max 1 n) in
  count ~die:(-1) "gc.minor_mwords_per_die"
    (per_die ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6));
  count ~die:(-1) "gc.major_collections"
    (per_die (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)));
  (* Correctness: every [check_every]-th die against a reference
     diagnosis on a separate lazy session. *)
  let sample =
    List.filter
      (fun d -> d.Dies.idx mod w.check_every = 0)
      (Array.to_list (Array.sub dies 0 n))
  in
  let reference_session = reference_session net pats_text in
  let refs = Hashtbl.create 64 in
  List.iter2
    (fun d r -> Hashtbl.replace refs d.Dies.idx r.Volume.text)
    sample
    (reference reference_session (Array.of_list sample));
  let failed = ref 0 in
  let texts =
    List.mapi
      (fun i oc ->
        match oc.res with
        | Ok r ->
          let want = Hashtbl.find_opt refs i in
          if Option.fold ~none:false ~some:(( <> ) r.Volume.text) want then incr failed;
          if oc.span >= 0 then
            attribute_report ~parent:oc.span ~die:i
              (Run_report.to_obs_json r.Volume.report);
          r.Volume.text
        | Error e ->
          incr failed;
          prerr_endline (Printf.sprintf "die %d raised %s" i (Printexc.to_string e));
          "")
      outcomes
  in
  let scored =
    List.concat
      (List.mapi
         (fun i oc -> match oc.res with Ok r -> [ (dies.(i), r) ] | Error _ -> [])
         outcomes)
  in
  let indexed = List.mapi (fun i oc -> (i, oc)) outcomes in
  let traced, untraced = List.partition (fun (_, oc) -> oc.span >= 0) indexed in
  finish o ~reference_session
    ~setup_s:(Array.append [| own_setup |] more)
    ~lat_ms:(Array.of_list (List.map (fun oc -> 1000. *. oc.wall) outcomes))
    ~dies_per_s:(float_of_int n /. elapsed) ~rss_mb:[| rss |] ~texts ~failed:!failed
    ~attempted:n ~scored
    ~traced:(List.map (fun (i, oc) -> (i, oc.wall)) traced)
    ~untraced:(List.map (fun (_, oc) -> oc.wall) untraced)

(* Persistent-store bench: time-to-first-report of one die against a
   fresh process, three arms per circuit (EXPERIMENTS Fig 1c):

   - {e cold}: no prewarm — the first diagnosis pays the candidate-pool
     simulation itself (the pre-PR 8 cold start);
   - {e prewarm}: [Session.prewarm] sweeps the whole pool and freezes,
     then the first diagnosis runs on the frozen arena (the PR 8 story —
     the sweep cost is the number that restarts keep repaying);
   - {e load}: [Sig_cache.load_frozen] adopts a snapshot saved by an
     earlier sweep, then the first diagnosis runs on the same arena —
     what a restarted fleet process actually pays.

   Methodology follows [Volumebench]: seeded-random patterns, wall
   clock, arms interleaved run by run so machine-speed drift lands on
   every arm equally, and the headline ratio divides best (minimum)
   times — scheduling noise only ever adds time.  Every arm run gets a
   fresh session, and with it a private cache, so no arm inherits
   another's warmth.

   Alongside the timings the report pins the footprint story: the
   packed arena's resident bytes ([Sig_cache.frozen_bytes]), the
   snapshot file size, and whether the full-pool arena sits inside the
   default cache budget — the rnd50k acceptance number. *)

type sample = {
  circuit : string;
  runs : int;
  faults : int;  (* prewarm pool size (class representatives) *)
  cold_ms : float;  (* best first-diagnose, cold cache *)
  prewarm_ms : float;  (* best whole-pool sweep + freeze *)
  prewarm_first_ms : float;  (* best first-diagnose after the sweep *)
  load_ms : float;  (* best snapshot load (read + validate + publish) *)
  load_first_ms : float;  (* best first-diagnose after the load *)
  load_speedup : float;  (* cold_ms / (load_ms + load_first_ms) *)
  arena_bytes : int;  (* packed frozen tier, resident *)
  file_bytes : int;  (* snapshot on disk (header + packed body) *)
  budget_bytes : int;  (* default cache budget the arena must fit *)
  fits_budget : bool;  (* arena_bytes <= budget_bytes *)
}

type report = { repeats : int; samples : sample list }

let find_circuit name =
  match Generators.find_suite name with
  | Some n -> n
  | None -> (
    match Generators.find_tier name with
    | Some n -> n
    | None -> invalid_arg ("Storebench: unknown circuit or tier " ^ name))

let default_patterns = 4 * Bitvec.word_bits

(* One failing die, drawn like [Volumebench.prepare]. *)
let prepare ~circuit ~patterns ~multiplicity ~seed =
  let net = find_circuit circuit in
  let rng = Rng.create seed in
  let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:patterns in
  let expected = Logic_sim.responses net pats in
  let rec make_dlog attempts =
    if attempts = 0 then failwith "Storebench: no failing defect combination found"
    else begin
      let defects = Injection.random_defects rng net Injection.default_mix multiplicity in
      let observed = Injection.observed_responses net pats defects in
      let dlog = Datalog.of_responses ~expected ~observed in
      if Datalog.num_failing dlog = 0 then make_dlog (attempts - 1) else dlog
    end
  in
  (net, pats, make_dlog 50)

let bench_circuit ~store_dir ~repeats ~patterns ~multiplicity ~seed circuit =
  let net, pats, dlog = prepare ~circuit ~patterns ~multiplicity ~seed in
  let diagnose session =
    let t0 = Obs.now_ns () in
    ignore (Sys.opaque_identity (Noassume.diagnose_session session dlog));
    (Obs.now_ns () -. t0) /. 1e6
  in
  let fresh_session () = Session.create net pats in
  let cache session = Option.get (Session.cache session) in
  (* Seed the snapshot once, outside the timed runs, and keep the pool
     size and footprint numbers from it (identical on every sweep). *)
  let seed_session = fresh_session () in
  let faults = Session.prewarm seed_session in
  if not (Sig_cache.save_frozen ~dir:store_dir (cache seed_session)) then
    failwith ("Storebench: cannot save snapshot under " ^ store_dir);
  let path = Sig_cache.store_path ~dir:store_dir (cache seed_session) in
  let file_bytes = (Unix.stat path).Unix.st_size in
  let arena_bytes = Sig_cache.frozen_bytes (cache seed_session) in
  let cold = Array.make repeats 0.0 in
  let sweep = Array.make repeats 0.0 in
  let sweep_first = Array.make repeats 0.0 in
  let load = Array.make repeats 0.0 in
  let load_first = Array.make repeats 0.0 in
  for i = 0 to repeats - 1 do
    (* Cold arm. *)
    let s = fresh_session () in
    cold.(i) <- diagnose s;
    (* Prewarm arm. *)
    let s = fresh_session () in
    let t0 = Obs.now_ns () in
    ignore (Session.prewarm s);
    sweep.(i) <- (Obs.now_ns () -. t0) /. 1e6;
    sweep_first.(i) <- diagnose s;
    (* Load arm. *)
    let s = fresh_session () in
    let t0 = Obs.now_ns () in
    if not (Sig_cache.load_frozen ~dir:store_dir (cache s)) then
      failwith "Storebench: snapshot load rejected";
    load.(i) <- (Obs.now_ns () -. t0) /. 1e6;
    load_first.(i) <- diagnose s
  done;
  let best a = Array.fold_left min a.(0) a in
  let budget_bytes = Sig_cache.default_budget_mb * 1024 * 1024 in
  {
    circuit;
    runs = repeats;
    faults;
    cold_ms = best cold;
    prewarm_ms = best sweep;
    prewarm_first_ms = best sweep_first;
    load_ms = best load;
    load_first_ms = best load_first;
    load_speedup = best cold /. (best load +. best load_first);
    arena_bytes;
    file_bytes;
    budget_bytes;
    fits_budget = arena_bytes <= budget_bytes;
  }

let default_store_dir () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "mdd_storebench_%d" (Unix.getpid ()))

let run ?(circuits = [ "rnd2k" ]) ?store_dir ?(repeats = 3)
    ?(patterns = default_patterns) ?(multiplicity = 1) ?(seed = 77) () =
  let store_dir = match store_dir with Some d -> d | None -> default_store_dir () in
  let samples =
    List.map (bench_circuit ~store_dir ~repeats ~patterns ~multiplicity ~seed) circuits
  in
  { repeats; samples }

(* Worst load-vs-cold ratio across circuits — the number gate 7 floors:
   every circuit's restart path must beat its cold path. *)
let min_load_speedup r =
  List.fold_left (fun acc s -> min acc s.load_speedup) infinity r.samples

let mb b = float_of_int b /. (1024.0 *. 1024.0)

let to_table r =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Cold start across process restarts (1 die, best of %d runs; cold vs \
            prewarm-sweep vs snapshot-load first diagnose)"
           r.repeats)
      [
        ("circuit", Table.Left);
        ("faults", Table.Right);
        ("cold ms", Table.Right);
        ("sweep ms", Table.Right);
        ("sweep+1st ms", Table.Right);
        ("load ms", Table.Right);
        ("load+1st ms", Table.Right);
        ("speedup", Table.Right);
        ("arena MB", Table.Right);
        ("file MB", Table.Right);
        ("fits 64MB", Table.Left);
      ]
  in
  List.iter
    (fun s ->
      Table.add_row table
        [
          s.circuit;
          Table.cell_int s.faults;
          Table.cell_float ~decimals:1 s.cold_ms;
          Table.cell_float ~decimals:1 s.prewarm_ms;
          Table.cell_float ~decimals:1 (s.prewarm_ms +. s.prewarm_first_ms);
          Table.cell_float ~decimals:1 s.load_ms;
          Table.cell_float ~decimals:1 (s.load_ms +. s.load_first_ms);
          Table.cell_float ~decimals:2 s.load_speedup;
          Table.cell_float ~decimals:2 (mb s.arena_bytes);
          Table.cell_float ~decimals:2 (mb s.file_bytes);
          (if s.fits_budget then "yes" else "NO");
        ])
    r.samples;
  table

let json_of_report r =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\n  \"repeats\": %d,\n" r.repeats;
  Printf.bprintf buf "  \"min_load_speedup\": %.4f,\n  \"samples\": [\n"
    (min_load_speedup r);
  List.iteri
    (fun i s ->
      Printf.bprintf buf
        "    {\"circuit\": %S, \"runs\": %d, \"faults\": %d, \"cold_ms\": %.3f, \
         \"prewarm_ms\": %.3f, \"prewarm_first_ms\": %.3f, \"load_ms\": %.3f, \
         \"load_first_ms\": %.3f, \"load_speedup\": %.4f, \"arena_bytes\": %d, \
         \"file_bytes\": %d, \"budget_bytes\": %d, \"fits_budget\": %b}%s\n"
        s.circuit s.runs s.faults s.cold_ms s.prewarm_ms s.prewarm_first_ms s.load_ms
        s.load_first_ms s.load_speedup s.arena_bytes s.file_bytes
        s.budget_bytes s.fits_budget
        (if i = List.length r.samples - 1 then "" else ","))
    r.samples;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let write_json ~path r =
  let oc = open_out path in
  output_string oc (json_of_report r);
  close_out oc

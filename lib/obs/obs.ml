(* Process-global registry.  Counter cells are atomics so worker domains
   increment without coordination; everything else (interning, dist and
   phase aggregation, snapshots) is batch-granularity and goes through
   one mutex.  OCaml 5's stdlib Mutex is domain-safe, so the library
   needs no dependency beyond [unix] for the clock. *)

type counter = { c_name : string; c_cell : int Atomic.t }

type dist = {
  d_name : string;
  mutable dv_count : int;
  mutable dv_sum : int;
  mutable dv_min : int;
  mutable dv_max : int;
}

type phase_tot = {
  mutable ph_count : int;
  mutable ph_ns : float;
  mutable ph_gc_major : int;
}

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  match f () with
  | v ->
    Mutex.unlock lock;
    v
  | exception e ->
    Mutex.unlock lock;
    raise e

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let dists : (string, dist) Hashtbl.t = Hashtbl.create 16
let phases : (string, phase_tot) Hashtbl.t = Hashtbl.create 16

let enabled_flag =
  ref
    (match Sys.getenv_opt "MDD_STATS" with
    | Some s when String.trim s <> "" -> true
    | Some _ | None -> false)

(* --- Per-session sinks ---------------------------------------------- *)

(* A sink is a private registry: while one is bound in the current
   domain, every event routes into the sink's own tables instead of the
   process-global ones, so concurrent diagnoses don't interleave stats.
   Sinks key by name (not by handle) because instrumented modules hold
   interned global handles; the per-event Hashtbl lookup is fine at the
   batch granularity instrumentation runs at.  Each sink carries its own
   mutex: one diagnosis normally runs in one domain, but its inner
   fork-join batches may publish from short-lived worker domains that
   inherit no DLS binding — those land in the global registry and reach
   the sink at [merge] time via the caller, so the lock is cheap
   insurance rather than a hot point. *)

type sink = {
  sk_lock : Mutex.t;
  sk_counters : (string, int ref) Hashtbl.t;
  sk_dists : (string, dist) Hashtbl.t;
  sk_phases : (string, phase_tot) Hashtbl.t;
}

let sink () =
  {
    sk_lock = Mutex.create ();
    sk_counters = Hashtbl.create 32;
    sk_dists = Hashtbl.create 8;
    sk_phases = Hashtbl.create 8;
  }

let sk_locked sk f =
  Mutex.lock sk.sk_lock;
  match f () with
  | v ->
    Mutex.unlock sk.sk_lock;
    v
  | exception e ->
    Mutex.unlock sk.sk_lock;
    raise e

let current_sink : sink option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_sink sk f =
  let prev = Domain.DLS.get current_sink in
  Domain.DLS.set current_sink (Some sk);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_sink prev) f

let enabled () = !enabled_flag || Domain.DLS.get current_sink <> None
let enable () = enabled_flag := true
let disable () = enabled_flag := false

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
        let c = { c_name = name; c_cell = Atomic.make 0 } in
        Hashtbl.add counters name c;
        c)

let sink_add sk name n =
  sk_locked sk (fun () ->
      match Hashtbl.find_opt sk.sk_counters name with
      | Some r -> r := !r + n
      | None -> Hashtbl.add sk.sk_counters name (ref n))

let add c n =
  match Domain.DLS.get current_sink with
  | Some sk -> sink_add sk c.c_name n
  | None -> ignore (Atomic.fetch_and_add c.c_cell n)

let incr c = add c 1
let value c = Atomic.get c.c_cell

let dist name =
  locked (fun () ->
      match Hashtbl.find_opt dists name with
      | Some d -> d
      | None ->
        let d = { d_name = name; dv_count = 0; dv_sum = 0; dv_min = 0; dv_max = 0 } in
        Hashtbl.add dists name d;
        d)

let record_into d v =
  if d.dv_count = 0 then begin
    d.dv_min <- v;
    d.dv_max <- v
  end
  else begin
    if v < d.dv_min then d.dv_min <- v;
    if v > d.dv_max then d.dv_max <- v
  end;
  d.dv_count <- d.dv_count + 1;
  d.dv_sum <- d.dv_sum + v

let sink_dist sk name =
  match Hashtbl.find_opt sk.sk_dists name with
  | Some d -> d
  | None ->
    let d = { d_name = name; dv_count = 0; dv_sum = 0; dv_min = 0; dv_max = 0 } in
    Hashtbl.add sk.sk_dists name d;
    d

let record d v =
  match Domain.DLS.get current_sink with
  | Some sk -> sk_locked sk (fun () -> record_into (sink_dist sk d.d_name) v)
  | None -> locked (fun () -> record_into d v)

let reset () =
  locked (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.c_cell 0) counters;
      Hashtbl.iter
        (fun _ d ->
          d.dv_count <- 0;
          d.dv_sum <- 0;
          d.dv_min <- 0;
          d.dv_max <- 0)
        dists;
      Hashtbl.reset phases)

(* --- Phase timers --------------------------------------------------- *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

type span = { s_name : string; s_t0 : float; s_gc0 : int; mutable s_open : bool }

let inert = { s_name = ""; s_t0 = 0.0; s_gc0 = 0; s_open = false }

let span_begin name =
  if not (enabled ()) then inert
  else
    {
      s_name = name;
      s_t0 = now_ns ();
      s_gc0 = (Gc.quick_stat ()).Gc.major_collections;
      s_open = true;
    }

let phase_into tbl name ns gc =
  let tot =
    match Hashtbl.find_opt tbl name with
    | Some t -> t
    | None ->
      let t = { ph_count = 0; ph_ns = 0.0; ph_gc_major = 0 } in
      Hashtbl.add tbl name t;
      t
  in
  tot.ph_count <- tot.ph_count + 1;
  tot.ph_ns <- tot.ph_ns +. ns;
  tot.ph_gc_major <- tot.ph_gc_major + gc

let span_end s =
  if s.s_open then begin
    s.s_open <- false;
    let ns = now_ns () -. s.s_t0 in
    let gc = (Gc.quick_stat ()).Gc.major_collections - s.s_gc0 in
    match Domain.DLS.get current_sink with
    | Some sk -> sk_locked sk (fun () -> phase_into sk.sk_phases s.s_name ns gc)
    | None -> locked (fun () -> phase_into phases s.s_name ns gc)
  end

let phase name f =
  let s = span_begin name in
  Fun.protect ~finally:(fun () -> span_end s) f

(* --- Snapshots ------------------------------------------------------ *)

type phase_stat = {
  p_name : string;
  p_count : int;
  p_total_ns : float;
  p_gc_major : int;
}

type dist_stat = {
  d_name : string;
  d_count : int;
  d_sum : int;
  d_min : int;
  d_max : int;
}

type snapshot = {
  phases : phase_stat list;
  counters : (string * int) list;
  dists : dist_stat list;
}

let by_name name_of a b = compare (name_of a) (name_of b)

(* Fold a sink's private tallies into the process-global registry.
   Locks are never nested: the sink is drained under its own lock, the
   globals updated afterwards (interning takes the global lock). *)
let merge sk =
  let cs, ds, ps =
    sk_locked sk (fun () ->
        let cs = Hashtbl.fold (fun name r acc -> (name, !r) :: acc) sk.sk_counters [] in
        let ds = Hashtbl.fold (fun _ d acc -> d :: acc) sk.sk_dists [] in
        let ps = Hashtbl.fold (fun name t acc -> (name, t) :: acc) sk.sk_phases [] in
        Hashtbl.reset sk.sk_counters;
        Hashtbl.reset sk.sk_dists;
        Hashtbl.reset sk.sk_phases;
        (cs, ds, ps))
  in
  List.iter
    (fun (name, n) -> ignore (Atomic.fetch_and_add (counter name).c_cell n))
    cs;
  List.iter
    (fun (d : dist) ->
      let g = dist d.d_name in
      locked (fun () ->
          if d.dv_count > 0 then begin
            if g.dv_count = 0 then begin
              g.dv_min <- d.dv_min;
              g.dv_max <- d.dv_max
            end
            else begin
              if d.dv_min < g.dv_min then g.dv_min <- d.dv_min;
              if d.dv_max > g.dv_max then g.dv_max <- d.dv_max
            end;
            g.dv_count <- g.dv_count + d.dv_count;
            g.dv_sum <- g.dv_sum + d.dv_sum
          end))
    ds;
  List.iter
    (fun (name, (t : phase_tot)) ->
      locked (fun () ->
          let tot =
            match Hashtbl.find_opt phases name with
            | Some tot -> tot
            | None ->
              let tot = { ph_count = 0; ph_ns = 0.0; ph_gc_major = 0 } in
              Hashtbl.add phases name tot;
              tot
          in
          tot.ph_count <- tot.ph_count + t.ph_count;
          tot.ph_ns <- tot.ph_ns +. t.ph_ns;
          tot.ph_gc_major <- tot.ph_gc_major + t.ph_gc_major))
    ps

let snapshot () =
  locked (fun () ->
      let phases =
        Hashtbl.fold
          (fun name t acc ->
            {
              p_name = name;
              p_count = t.ph_count;
              p_total_ns = t.ph_ns;
              p_gc_major = t.ph_gc_major;
            }
            :: acc)
          phases []
        |> List.sort (by_name (fun p -> p.p_name))
      in
      let counters =
        Hashtbl.fold (fun name c acc -> (name, Atomic.get c.c_cell) :: acc) counters []
        |> List.sort compare
      in
      let dists =
        Hashtbl.fold
          (fun name d acc ->
            {
              d_name = name;
              d_count = d.dv_count;
              d_sum = d.dv_sum;
              d_min = d.dv_min;
              d_max = d.dv_max;
            }
            :: acc)
          dists []
        |> List.sort (by_name (fun (d : dist_stat) -> d.d_name))
      in
      { phases; counters; dists })

(* A sink snapshot keeps the inventory property of the global snapshot:
   every globally-registered counter and dist name appears, zero-valued
   when the sink never saw it, so per-session reports have the same
   shape as process-wide ones. *)
let sink_snapshot sk =
  let counter_names =
    locked (fun () -> Hashtbl.fold (fun name _ acc -> name :: acc) counters [])
  in
  let dist_names =
    locked (fun () -> Hashtbl.fold (fun name _ acc -> name :: acc) dists [])
  in
  sk_locked sk (fun () ->
      let phases =
        Hashtbl.fold
          (fun name (t : phase_tot) acc ->
            {
              p_name = name;
              p_count = t.ph_count;
              p_total_ns = t.ph_ns;
              p_gc_major = t.ph_gc_major;
            }
            :: acc)
          sk.sk_phases []
        |> List.sort (by_name (fun p -> p.p_name))
      in
      let counters =
        List.map
          (fun name ->
            let v =
              match Hashtbl.find_opt sk.sk_counters name with
              | Some r -> !r
              | None -> 0
            in
            (name, v))
          counter_names
        |> List.sort compare
      in
      let dists =
        List.map
          (fun name ->
            let d =
              match Hashtbl.find_opt sk.sk_dists name with
              | Some d -> d
              | None ->
                { d_name = name; dv_count = 0; dv_sum = 0; dv_min = 0; dv_max = 0 }
            in
            {
              d_name = name;
              d_count = d.dv_count;
              d_sum = d.dv_sum;
              d_min = d.dv_min;
              d_max = d.dv_max;
            })
          dist_names
        |> List.sort (by_name (fun (d : dist_stat) -> d.d_name))
      in
      { phases; counters; dists })

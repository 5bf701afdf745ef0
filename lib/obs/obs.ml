(* One registry type.  A sink is a set of name-keyed tallies behind one
   mutex, and an event bumps the sink bound in the current domain — or
   nothing, when none is.  Handles are interned names: instrumented
   modules register theirs once at initialisation, which records the
   name in the process-wide inventory every snapshot lists; the
   inventory holds names only, never a tally.  Events are
   batch-granularity, so the per-event lock and Hashtbl lookup stay off
   every hot path: even the signature cache's hits and misses are added
   once per looked-up batch ([Sig_cache.missing]), not once per row.
   OCaml 5's stdlib Mutex is domain-safe, so the library needs no
   dependency beyond the monotonic clock. *)

type tally = {
  mutable count : int;
  mutable sum : int;
  mutable lo : int;
  mutable hi : int;
}

type phase_tot = {
  mutable ph_count : int;
  mutable ph_ns : float;
  mutable ph_gc_major : int;
}

type sink = {
  lock : Mutex.t;
  counters : (string, int ref) Hashtbl.t;
  dists : (string, tally) Hashtbl.t;
  phases : (string, phase_tot) Hashtbl.t;
}

let sink () =
  {
    lock = Mutex.create ();
    counters = Hashtbl.create 32;
    dists = Hashtbl.create 8;
    phases = Hashtbl.create 8;
  }

let locked lock f =
  Mutex.lock lock;
  match f () with
  | v ->
    Mutex.unlock lock;
    v
  | exception e ->
    Mutex.unlock lock;
    raise e

(* The bump functions: the one place each kind of tally changes, shared
   by the event path and by [merge].  Callers hold [sk]'s lock.  A dist
   entry exists only once it has a sample, so min/max need no
   empty-case. *)

let bump_counter sk name n =
  match Hashtbl.find_opt sk.counters name with
  | Some r -> r := !r + n
  | None -> Hashtbl.add sk.counters name (ref n)

let bump_dist sk name ~count ~sum ~lo ~hi =
  match Hashtbl.find_opt sk.dists name with
  | None -> Hashtbl.add sk.dists name { count; sum; lo; hi }
  | Some t ->
    t.count <- t.count + count;
    t.sum <- t.sum + sum;
    if lo < t.lo then t.lo <- lo;
    if hi > t.hi then t.hi <- hi

let bump_phase sk name ~count ~ns ~gc =
  match Hashtbl.find_opt sk.phases name with
  | None -> Hashtbl.add sk.phases name { ph_count = count; ph_ns = ns; ph_gc_major = gc }
  | Some t ->
    t.ph_count <- t.ph_count + count;
    t.ph_ns <- t.ph_ns +. ns;
    t.ph_gc_major <- t.ph_gc_major + gc

(* --- Binding ------------------------------------------------------- *)

let bound : sink option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let bound_sink () = Domain.DLS.get bound
let enabled () = Option.is_some (bound_sink ())

let with_sink sk f =
  let prev = bound_sink () in
  Domain.DLS.set bound (Some sk);
  Fun.protect ~finally:(fun () -> Domain.DLS.set bound prev) f

(* An event's update, applied to the bound sink under its lock. *)
let into_bound update =
  match bound_sink () with
  | Some sk -> locked sk.lock (fun () -> update sk)
  | None -> ()

(* --- Counters and dists -------------------------------------------- *)

(* The inventory of registered names, under its own lock. *)
let names_lock = Mutex.create ()
let counter_names : (string, unit) Hashtbl.t = Hashtbl.create 32
let dist_names : (string, unit) Hashtbl.t = Hashtbl.create 16

let register names name =
  locked names_lock (fun () -> Hashtbl.replace names name ());
  name

type counter = string

let counter name = register counter_names name
let add c n = into_bound (fun sk -> bump_counter sk c n)
let incr c = add c 1

type dist = string

let dist name = register dist_names name
let record d v = into_bound (fun sk -> bump_dist sk d ~count:1 ~sum:v ~lo:v ~hi:v)

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

let span_end s =
  if s.s_open then begin
    s.s_open <- false;
    let ns = now_ns () -. s.s_t0 in
    let gc = (Gc.quick_stat ()).Gc.major_collections - s.s_gc0 in
    into_bound (fun sk -> bump_phase sk s.s_name ~count:1 ~ns ~gc)
  end

let phase name f =
  let s = span_begin name in
  Fun.protect ~finally:(fun () -> span_end s) f

(* --- Snapshots and merge -------------------------------------------- *)

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

(* Locks are never nested: the inventory is read under its lock, the
   tallies afterwards under [sk]'s. *)
let sink_snapshot sk =
  let keys tbl =
    Hashtbl.fold (fun name () acc -> name :: acc) tbl [] |> List.sort compare
  in
  let cnames, dnames =
    locked names_lock (fun () -> (keys counter_names, keys dist_names))
  in
  locked sk.lock (fun () ->
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
          sk.phases []
        |> List.sort (fun a b -> compare a.p_name b.p_name)
      in
      let counters =
        List.map
          (fun name ->
            (name, match Hashtbl.find_opt sk.counters name with Some r -> !r | None -> 0))
          cnames
      in
      let dists =
        List.map
          (fun name ->
            match Hashtbl.find_opt sk.dists name with
            | Some t ->
              {
                d_name = name;
                d_count = t.count;
                d_sum = t.sum;
                d_min = t.lo;
                d_max = t.hi;
              }
            | None -> { d_name = name; d_count = 0; d_sum = 0; d_min = 0; d_max = 0 })
          dnames
      in
      { phases; counters; dists })

(* Drain the sink under its own lock, then fold into the bound sink
   under that one's, through the same bump functions an event uses. *)
let merge sk =
  match bound_sink () with
  | None -> ()
  | Some target ->
    let cs, ds, ps =
      locked sk.lock (fun () ->
          let taken =
            (Hashtbl.copy sk.counters, Hashtbl.copy sk.dists, Hashtbl.copy sk.phases)
          in
          Hashtbl.reset sk.counters;
          Hashtbl.reset sk.dists;
          Hashtbl.reset sk.phases;
          taken)
    in
    locked target.lock (fun () ->
        Hashtbl.iter (fun name r -> bump_counter target name !r) cs;
        Hashtbl.iter
          (fun name t ->
            bump_dist target name ~count:t.count ~sum:t.sum ~lo:t.lo ~hi:t.hi)
          ds;
        Hashtbl.iter
          (fun name t ->
            bump_phase target name ~count:t.ph_count ~ns:t.ph_ns ~gc:t.ph_gc_major)
          ps)

(* In-memory trace of one benchmark run, on a monotonic clock.

   A span is a timed call from the runner into one layer: name, start,
   end, the span that caused it, and the die it served.  Time a layer
   spends that the runner cannot bracket itself (an engine phase read
   from a run report, a layer timed once and paid by every CLI process)
   is added to a span as an attribution: a named duration with no
   timestamps.  A span's self time is its duration minus its child
   spans and attributions.  Nothing is recorded unless [enable] was
   called; the call is timed either way. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

type span = {
  id : int;
  parent : int;  (** -1 for a root. *)
  die : int;  (** -1 for work that serves no single die (set-up). *)
  name : string;
  start : float;
  stop : float;
}

type attribution = { a_parent : int; a_die : int; a_name : string; a_ns : float }

let on = ref false
let lock = Mutex.create ()
let next_id = Atomic.make 0
let spans : span list ref = ref []
let attributions : attribution list ref = ref []
let enable () = on := true
let enabled () = !on

(* [f] receives the span's id, for its children (-1 when tracing is
   off); returns [f]'s result and its duration in ns. *)
let run ?(parent = -1) ?(die = -1) name f =
  let id = if !on then Atomic.fetch_and_add next_id 1 else -1 in
  let start = now_ns () in
  let r = f id in
  let stop = now_ns () in
  if !on then
    Mutex.protect lock (fun () ->
        spans := { id; parent; die; name; start; stop } :: !spans);
  (r, stop -. start)

let attribute ~parent ~die name ns =
  if !on then
    Mutex.protect lock (fun () ->
        attributions :=
          { a_parent = parent; a_die = die; a_name = name; a_ns = ns } :: !attributions)

let bump tbl key ns =
  Hashtbl.replace tbl key (ns +. Option.value (Hashtbl.find_opt tbl key) ~default:0.)

(* Self time in ns per (die, name), summed over the spans and
   attributions of that name. *)
let self_times () =
  let children = Hashtbl.create 256 in
  List.iter (fun s -> bump children s.parent (s.stop -. s.start)) !spans;
  List.iter (fun a -> bump children a.a_parent a.a_ns) !attributions;
  let self = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let covered = Option.value (Hashtbl.find_opt children s.id) ~default:0. in
      bump self (s.die, s.name) (s.stop -. s.start -. covered))
    !spans;
  List.iter (fun a -> bump self (a.a_die, a.a_name) a.a_ns) !attributions;
  self

let to_json () =
  let of_int i = Obs_json.Num (float_of_int i) in
  Obs_json.(
    Obj
      [
        ( "spans",
          List
            (List.rev_map
               (fun s ->
                 Obj
                   [
                     ("id", of_int s.id);
                     ("parent", of_int s.parent);
                     ("die", of_int s.die);
                     ("name", Str s.name);
                     ("start_ns", Num s.start);
                     ("end_ns", Num s.stop);
                   ])
               !spans) );
        ( "attributions",
          List
            (List.rev_map
               (fun a ->
                 Obj
                   [
                     ("parent", of_int a.a_parent);
                     ("die", of_int a.a_die);
                     ("name", Str a.a_name);
                     ("ns", Num a.a_ns);
                   ])
               !attributions) );
      ])

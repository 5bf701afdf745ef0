(* Fork-join batches, not a persistent pool.  Each batch spawns its
   worker domains, drains the chunk array through a shared atomic
   cursor (caller included), joins the workers, and leaves *zero* idle
   domains behind.  That last property is the point: on OCaml 5 every
   stop-the-world section — minor collections, major-cycle phase
   changes — must handshake every live domain, and a domain parked on a
   condition variable answers through its backup thread, which the OS
   must schedule first.  Measured on a busy single-CPU host that is
   roughly 0.5 ms per parked domain per collection, a tax levied on all
   sequential code in the process for as long as the idle workers
   exist.  A [Domain.spawn]+join pair costs about a millisecond, paid
   only by batches that asked for parallelism — so callers should go
   parallel only when a batch comfortably outweighs a few spawns, and
   run small regions inline. *)

let max_domains = 64

let clamp n = if n < 1 then 1 else if n > max_domains then max_domains else n

let override = ref None

let env_domains =
  lazy
    (match Sys.getenv_opt "MDD_DOMAINS" with
    | None -> None
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some (clamp n)
      | Some _ | None -> None))

let set_domains n = override := Some (clamp n)

(* The uncapped recommended count can be large on big servers; 8 is
   plenty for the kernels here and keeps surprise memory use bounded.
   MDD_DOMAINS / set_domains / ?domains all go past this soft cap. *)
let default_domains () =
  match !override with
  | Some n -> n
  | None -> (
    match Lazy.force env_domains with
    | Some n -> n
    | None -> clamp (min (Domain.recommended_domain_count ()) 8))

let resolve = function Some d -> clamp d | None -> default_domains ()

(* Set on every participant of a batch while it drains — the spawned
   workers and the caller alike — so a call made from inside a region
   runs inline. *)
let in_region = Domain.DLS.new_key (fun () -> false)

(* Observability: batch/spawn counts and each region's planned chunk
   count, recorded once per region, serial or parallel, on the calling
   domain.  The plan fixes the count, so it depends on the work alone;
   which participant drains which chunk is never recorded, as it
   varies from run to run. *)
let c_batches = Obs.counter "parallel.batches"
let c_spawns = Obs.counter "parallel.spawns"
let c_serial_runs = Obs.counter "parallel.serial_runs"
let d_chunks = Obs.dist "parallel.chunks_per_region"

let note_serial nchunks =
  if Obs.enabled () then begin
    Obs.incr c_serial_runs;
    Obs.record d_chunks nchunks
  end

(* Effective parallelism of a call: capped by the work size, forced to 1
   inside a region (nested calls run inline). *)
let width domains n =
  let d = min (resolve domains) n in
  if Domain.DLS.get in_region then 1 else d

(* Run [body ~slot i lo hi] for every chunk, on [w] domains (the caller
   plus [w - 1] spawned workers).  The atomic cursor hands chunks out in
   index order; which domain runs which chunk varies between runs, but
   a disjoint-write body keys its writes on the chunk index, so results
   never depend on the assignment.  [slot] identifies the draining
   participant (0 = caller, [1 .. nworkers] = spawned workers) so a
   body may reuse per-participant scratch across the chunks it drains —
   scratch whose contents must never leak into chunk-keyed results.
   Requires [w >= 2] and at least two chunks. *)
let run_chunks_slotted w chunks body =
  let nchunks = Array.length chunks in
  let cursor = Atomic.make 0 in
  let failure = Atomic.make None in
  let nworkers = min (w - 1) (nchunks - 1) in
  (* Slot 0 is the caller; each worker owns slot [i + 1]. *)
  let drain slot =
    let continue = ref true in
    while !continue do
      let i = Atomic.fetch_and_add cursor 1 in
      if i >= nchunks then continue := false
      else begin
        let lo, hi = chunks.(i) in
        match body ~slot i lo hi with
        | () -> ()
        | exception e ->
          (* Keep the first failure; later chunks still run so every
             started write completes before the caller sees the raise. *)
          ignore (Atomic.compare_and_set failure None (Some e))
      end
    done
  in
  (* Workers re-bind the caller's Obs sink, so a sink-bound region
     keeps the counters of every domain it fans out to. *)
  let sink = Obs.bound_sink () in
  let workers =
    Array.init nworkers (fun i ->
        Domain.spawn (fun () ->
            Domain.DLS.set in_region true;
            match sink with
            | Some sk -> Obs.with_sink sk (fun () -> drain (i + 1))
            | None -> drain (i + 1)))
  in
  (* The caller drains as one more participant, in-region like the
     workers: a nested call it makes runs inline instead of spawning
     a second batch beside the one it is part of.  [w >= 2], so the
     caller was not in a region before. *)
  Domain.DLS.set in_region true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_region false) (fun () -> drain 0);
  Array.iter Domain.join workers;
  if Obs.enabled () then begin
    Obs.incr c_batches;
    Obs.add c_spawns nworkers;
    Obs.record d_chunks nchunks
  end;
  match Atomic.get failure with Some e -> raise e | None -> ()

let chunk_bounds n k =
  let k = min k n in
  let base = n / k and rem = n mod k in
  Array.init k (fun i ->
      let lo = (i * base) + min i rem in
      (lo, lo + base + if i < rem then 1 else 0))

(* Contiguous chunks with near-equal weight sums: a linear sweep cuts a
   chunk once it holds its fair share of the remaining weight (always
   leaving enough elements for the remaining cuts).  Deterministic —
   chunk boundaries depend only on the weights, never on timing. *)
let chunk_bounds_weighted weights nchunks =
  let n = Array.length weights in
  let nchunks = max 1 (min nchunks n) in
  let total = Array.fold_left (fun a w -> a + max 1 w) 0 weights in
  let chunks = ref [] in
  let lo = ref 0 in
  let acc = ref 0 in
  let spent = ref 0 in
  let made = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + max 1 weights.(i);
    let remaining = nchunks - !made in
    if remaining > 1 && n - (i + 1) >= remaining - 1 then begin
      let target = (total - !spent + remaining - 1) / remaining in
      if !acc >= target then begin
        chunks := (!lo, i + 1) :: !chunks;
        lo := i + 1;
        spent := !spent + !acc;
        acc := 0;
        incr made
      end
    end
  done;
  chunks := (!lo, n) :: !chunks;
  Array.of_list (List.rev !chunks)

(* --- Public entry points -------------------------------------------- *)

(* Merge adjacent chunks until each (except possibly the only one left)
   carries at least [min_w] weight.  Cache-aware callers use this to
   keep a near-empty residue — e.g. the few candidates that missed a
   warm signature cache — from fanning out across domains whose spawns
   cost more than the work. *)
let merge_small_chunks weights min_w chunks =
  if min_w <= 0 then chunks
  else begin
    let weight_of (lo, hi) =
      let w = ref 0 in
      for i = lo to hi - 1 do
        w := !w + max 1 weights.(i)
      done;
      !w
    in
    let merged = ref [] in
    let acc = ref None in
    Array.iter
      (fun (lo, hi) ->
        match !acc with
        | None -> acc := Some (lo, hi, weight_of (lo, hi))
        | Some (alo, ahi, w) ->
          if w >= min_w then begin
            merged := (alo, ahi) :: !merged;
            acc := Some (lo, hi, weight_of (lo, hi))
          end
          else acc := Some (alo, hi, w + weight_of (lo, hi)))
      chunks;
    (match !acc with
    | Some (alo, ahi, w) -> (
      (* A light trailing chunk folds into its predecessor. *)
      match !merged with
      | (plo, _) :: rest when w < min_w -> merged := (plo, ahi) :: rest
      | _ -> merged := (alo, ahi) :: !merged)
    | None -> ());
    Array.of_list (List.rev !merged)
  end

(* Split every chunk longer than [cap] indices into near-equal pieces.
   This is how a plan becomes a sequence of bounded *tiles*: a batched
   simulation chunk is a (fault-batch x block-set) tile whose fault axis
   must stay small enough for the batch scratch to keep cache residency,
   independent of how much weight the balancer packed into it. *)
let split_large_chunks cap chunks =
  if Array.for_all (fun (lo, hi) -> hi - lo <= cap) chunks then chunks
  else
    Array.concat
      (Array.to_list
         (Array.map
            (fun (lo, hi) ->
              let len = hi - lo in
              if len <= cap then [| (lo, hi) |]
              else
                Array.map
                  (fun (a, b) -> (lo + a, lo + b))
                  (chunk_bounds len ((len + cap - 1) / cap)))
            chunks))

(* Oversplit factor of a weighted plan: chunks per domain, so the shared
   cursor absorbs weight-estimate error. *)
let chunks_per_domain = 4

let weighted_chunks ?(min_chunk_weight = 0) ?max_chunk_size ~weights () =
  let n = Array.length weights in
  if n = 0 then [||]
  else begin
    let d = width None n in
    let base =
      if d <= 1 then [| (0, n) |]
      else
        merge_small_chunks weights min_chunk_weight
          (chunk_bounds_weighted weights (d * chunks_per_domain))
    in
    match max_chunk_size with
    | None -> base
    | Some cap when cap < 1 -> invalid_arg "Parallel.weighted_chunks: max_chunk_size < 1"
    | Some cap -> split_large_chunks cap base
  end

let plan_slots plan =
  match Array.length plan with
  | 0 -> 0
  | 1 -> 1
  | nchunks ->
    let d = width None nchunks in
    if d <= 1 then 1 else min (d - 1) (nchunks - 1) + 1

let run_plan_slotted plan body =
  match Array.length plan with
  | 0 -> ()
  | 1 ->
    note_serial 1;
    let lo, hi = plan.(0) in
    body ~slot:0 0 lo hi
  | nchunks ->
    let d = width None nchunks in
    if d <= 1 then begin
      note_serial nchunks;
      Array.iteri (fun i (lo, hi) -> body ~slot:0 i lo hi) plan
    end
    else run_chunks_slotted d plan body

let mapi_array ?domains f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let d = width domains n in
    if d <= 1 then begin
      note_serial 1;
      Array.mapi f a
    end
    else begin
      let chunks = chunk_bounds n d in
      let parts = Array.make (Array.length chunks) [||] in
      run_chunks_slotted d chunks (fun ~slot:_ i lo hi ->
          parts.(i) <- Array.init (hi - lo) (fun j -> f (lo + j) a.(lo + j)));
      Array.concat (Array.to_list parts)
    end
  end

let map_array ?domains f a = mapi_array ?domains (fun _ x -> f x) a

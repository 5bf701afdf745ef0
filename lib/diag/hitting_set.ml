(* Implicit hitting-set minimum cover over the explanation matrix.

   The greedy cover of [Noassume] is fast but carries no minimality
   claim.  This module closes that gap with the implicit hitting-set
   loop of the MBD-with-multiple-observations literature (Ignatiev,
   Morgado & Marques-Silva; Orvalho et al. — see PAPERS.md): a cover of
   the observation matrix is exactly a hitting set of the family
   { explainers(o) | o failing observation }, so instead of handing the
   whole family to the sub-solver at once, constraints are revealed
   lazily —

     candidate cover -> find an observation it leaves uncovered ->
     add that observation's explaining candidates as a new set ->
     re-solve the (still small) hitting-set instance -> repeat

   — until the sub-solver's optimum hits every revealed set AND covers
   every coverable observation.  At that point the standard sandwich
   argument applies: the optimum of a constraint subset lower-bounds the
   full optimum, and a feasible cover upper-bounds it, so a cover that
   is both is minimum (DESIGN.md §13 spells the argument out).

   The greedy result seeds the loop as an upper bound: the sub-solver
   only ever searches below it, and the moment a proved sub-solve finds
   nothing smaller, the greedy cover itself is proven minimum without
   ever materialising the remaining constraints.  On small matrices
   that early exit fires often; on rnd1k-sized instances the loop
   instead routinely {e halves} the cover — greedy's pair moves and
   misprediction discounts trade cardinality for diagnostic caution
   (the greedy-vs-exact gate of bench/check_regress.ml measures ~7
   greedy vs ~3.5 proven minimum) — and the lazily-revealed instances
   stay small enough that the exact backend costs well under 2x greedy
   wall time. *)

(* --- Incremental minimum hitting-set core --------------------------- *)

(* The branch and bound the loop below drives incrementally: sets are
   added one violated constraint at a time and each re-solve carries the
   previous optimum forward as a lower bound (adding constraints can
   only grow the optimum).  Elements are opaque non-negative ints — the
   loop passes candidate indices of an [Explain.t]. *)
module Solver = struct
  type t = {
    mutable sets : int array list;  (* newest first *)
    mutable max_elem : int;  (* largest element id seen, -1 when empty *)
    mutable floor : int;  (* proven lower bound on the optimum *)
  }

  type outcome = {
    hitting : int list option;
    proved : bool;
    nodes : int;
    ub_cuts : int;
  }

  let create () = { sets = []; max_elem = -1; floor = 0 }

  let add_set t set =
    if Array.length set = 0 then invalid_arg "Hitting_set.Solver.add_set: empty set";
    t.sets <- set :: t.sets;
    Array.iter (fun e -> if e > t.max_elem then t.max_elem <- e) set

  let lower_bound t = t.floor

  (* Minimum hitting set of the current collection, restricted to
     solutions strictly smaller than [upper_bound].  [hitting = None]
     with [proved = true] means no hitting set of size < upper_bound
     exists — the caller's upper bound is the optimum.  [proved = false]
     means the node budget ran out; [hitting] is then the best
     (unproven) solution found so far, if any.  Deterministic: branches
     on the unhit set with the fewest elements (first added wins ties),
     tries elements in array order. *)
  let solve ?(upper_bound = max_int) ~node_budget t =
    let sets = Array.of_list (List.rev t.sets) in
    let nsets = Array.length sets in
    let width = t.max_elem + 2 in
    let in_chosen = Array.make width false in
    (* Epoch-stamped scratch for the per-node disjoint-set scan — no
       clearing between nodes. *)
    let used = Array.make width 0 in
    let epoch = ref 0 in
    let best = ref None in
    (* [bound] = size every explored solution must stay strictly
       below: the caller's upper bound, tightened as solutions land. *)
    let bound = ref upper_bound in
    let nodes = ref 0 in
    let ub_cuts = ref 0 in
    let out_of_budget = ref false in
    (* Once a solution matches the proven floor it is optimal — no
       smaller one can exist, stop descending anywhere. *)
    let done_ = ref false in
    let rec go depth chosen =
      if (not !done_) && not !out_of_budget then begin
        incr nodes;
        if !nodes > node_budget then out_of_budget := true
        else begin
          incr epoch;
          let e = !epoch in
          (* One scan finds the most constrained unhit set (fewest
             elements, first added wins ties) and greedily counts
             pairwise-disjoint unhit sets — each such set needs its own
             element, so the count lower-bounds the remaining work and
             cuts far above the leaf level. *)
          let pivot = ref (-1) in
          let pivot_width = ref max_int in
          let disjoint = ref 0 in
          for si = 0 to nsets - 1 do
            let s = sets.(si) in
            if not (Array.exists (fun x -> in_chosen.(x)) s) then begin
              let w = Array.length s in
              if w < !pivot_width then begin
                pivot_width := w;
                pivot := si
              end;
              if not (Array.exists (fun x -> used.(x) = e) s) then begin
                incr disjoint;
                Array.iter (fun x -> used.(x) <- e) s
              end
            end
          done;
          if !pivot < 0 then begin
            (* Everything hit: record only strict improvements, so the
               first solution of the final size wins (sibling branches
               of the node that set [bound] can still reach equal-size
               leaves). *)
            if depth < !bound then begin
              best := Some (List.rev chosen);
              bound := depth;
              if depth <= t.floor then done_ := true
            end
          end
          else if depth + !disjoint >= !bound then
            (* Even the optimistic completion reaches the bound: cut.
               This is the pruning the greedy seed buys. *)
            incr ub_cuts
          else
            Array.iter
              (fun x ->
                if not in_chosen.(x) then begin
                  in_chosen.(x) <- true;
                  go (depth + 1) (x :: chosen);
                  in_chosen.(x) <- false
                end)
              sets.(!pivot)
        end
      end
    in
    go 0 [];
    let proved = not !out_of_budget in
    (* A proved search raises the floor: either to the optimum found,
       or to the upper bound when nothing below it exists. *)
    if proved then
      t.floor <-
        max t.floor
          (match !best with
          | Some sol -> List.length sol
          | None -> min upper_bound (nsets + 1));
    { hitting = !best; proved; nodes = !nodes; ub_cuts = !ub_cuts }
end

type result = {
  cover : int list;
  minimum : int option;
  complete : bool;
  improved : bool;
  iterations : int;
  nodes : int;
}

let default_node_budget = Session.default_cover_budget

let c_iterations = Obs.counter "cover.hs_iterations"
let c_ub_cuts = Obs.counter "cover.upper_bound_cuts"

(* Union of the cover vectors of [ids] — the observations a candidate
   list explains. *)
let covered_by covers nobs ids =
  let u = Bitvec.create nobs in
  List.iter (fun c -> Bitvec.union_into ~dst:u covers.(c)) ids;
  u

let solve ?(node_budget = default_node_budget) ~max_size ?covers ?(seed = []) m =
  let ncand = Array.length (Explain.candidates m) in
  let nobs = Array.length (Explain.observations m) in
  let covers =
    match covers with
    | Some c -> c
    | None -> Array.init ncand (fun c -> Explain.covers m c)
  in
  (* Candidates able to explain each observation; observations nobody
     explains are out of reach of any cover (greedy leaves them
     uncovered too) and drop out of the instance. *)
  let per_obs = Array.make nobs [] in
  for c = ncand - 1 downto 0 do
    Bitvec.iter_set covers.(c) (fun oi -> per_obs.(oi) <- c :: per_obs.(oi))
  done;
  let coverable = Bitvec.create nobs in
  for oi = 0 to nobs - 1 do
    if per_obs.(oi) <> [] then Bitvec.set coverable oi true
  done;
  let ncoverable = Bitvec.popcount coverable in
  if ncoverable = 0 then
    { cover = []; minimum = Some 0; complete = true; improved = false;
      iterations = 0; nodes = 0 }
  else begin
    (* The seed is an upper bound only if it actually covers everything
       coverable (greedy can stop short at its multiplet cap). *)
    let seed_full =
      let u = covered_by covers nobs seed in
      Bitvec.inter_into ~dst:u coverable;
      Bitvec.popcount u = ncoverable
    in
    let ub = if seed_full then List.length seed else max_size + 1 in
    let solver = Solver.create () in
    let iterations = ref 0 in
    let nodes = ref 0 in
    let ub_cuts = ref 0 in
    (* The lowest-width uncovered coverable observation: most
       constraining first, ties to the lowest index — deterministic. *)
    let next_uncovered current =
      let u = covered_by covers nobs current in
      let pick = ref (-1) in
      let width = ref max_int in
      Bitvec.iter_set coverable (fun oi ->
          if not (Bitvec.get u oi) then begin
            let w = List.length per_obs.(oi) in
            if w < !width then begin
              width := w;
              pick := oi
            end
          end);
      !pick
    in
    let finish outcome =
      if Obs.enabled () then begin
        Obs.add c_iterations !iterations;
        Obs.add c_ub_cuts !ub_cuts
      end;
      outcome
    in
    let rec loop current =
      match next_uncovered current with
      | -1 ->
        (* [current] hits every revealed set (it is the sub-solver's
           optimum) and covers every coverable observation: minimum. *)
        let size = List.length current in
        finish
          {
            cover = (if size < List.length seed || not seed_full then List.sort compare current else seed);
            minimum = Some size;
            complete = true;
            improved = seed_full && size < List.length seed;
            iterations = !iterations;
            nodes = !nodes;
          }
      | oi ->
        incr iterations;
        Solver.add_set solver (Array.of_list per_obs.(oi));
        let o =
          Solver.solve ~upper_bound:ub
            ~node_budget:(node_budget - !nodes) solver
        in
        nodes := !nodes + o.Solver.nodes;
        ub_cuts := !ub_cuts + o.Solver.ub_cuts;
        if not o.Solver.proved then
          (* Budget exhausted mid-proof: no minimality claim.  The
             caller falls back to its seed. *)
          finish
            { cover = seed; minimum = None; complete = false; improved = false;
              iterations = !iterations; nodes = !nodes }
        else begin
          match o.Solver.hitting with
          | Some h -> loop h
          | None ->
            (* Nothing below the bound hits even this constraint
               subset, so nothing below it covers the matrix either. *)
            if seed_full then
              finish
                { cover = seed; minimum = Some ub; complete = true; improved = false;
                  iterations = !iterations; nodes = !nodes }
            else
              (* No cover within [max_size] at all; keep the seed's
                 partial cover, claim nothing. *)
              finish
                { cover = seed; minimum = None; complete = true; improved = false;
                  iterations = !iterations; nodes = !nodes }
        end
    in
    loop []
  end

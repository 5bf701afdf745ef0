type result = {
  multiplets : Fault_list.fault list list;
  minimum : int option;
  complete : bool;
  nodes : int;
}

(* --- Incremental minimum hitting-set core --------------------------- *)

(* The branch-and-bound below, factored out of [solve] so the implicit
   hitting-set loop ([Hitting_set]) can drive it incrementally: sets are
   added one violated constraint at a time and each re-solve carries the
   previous optimum forward as a lower bound (adding constraints can
   only grow the optimum).  Elements are opaque non-negative ints — the
   diagnosis layer passes candidate indices of an [Explain.t]. *)
module Solver = struct
  type t = {
    mutable sets : int array list;  (* newest first *)
    mutable nsets : int;
    mutable max_elem : int;  (* largest element id seen, -1 when empty *)
    mutable floor : int;  (* proven lower bound on the optimum *)
  }

  type outcome = {
    hitting : int list option;
    proved : bool;
    nodes : int;
    ub_cuts : int;
  }

  let create () = { sets = []; nsets = 0; max_elem = -1; floor = 0 }

  let add_set t set =
    if Array.length set = 0 then invalid_arg "Exact_cover.Solver.add_set: empty set";
    t.sets <- set :: t.sets;
    t.nsets <- t.nsets + 1;
    Array.iter (fun e -> if e > t.max_elem then t.max_elem <- e) set

  let num_sets t = t.nsets

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
          | None -> min upper_bound (t.nsets + 1));
    { hitting = !best; proved; nodes = !nodes; ub_cuts = !ub_cuts }
end

let solve ?(max_size = 8) ?(max_solutions = 16) ?(node_budget = 200_000)
    ?upper_bound m =
  let candidates = Explain.candidates m in
  let ncand = Array.length candidates in
  let nobs = Array.length (Explain.observations m) in
  if nobs = 0 then { multiplets = [ [] ]; minimum = Some 0; complete = true; nodes = 0 }
  else begin
    let covers = Array.init ncand (fun c -> Explain.covers m c) in
    (* Candidates able to explain each observation. *)
    let per_obs = Array.make nobs [] in
    for c = ncand - 1 downto 0 do
      Bitvec.iter_set covers.(c) (fun oi -> per_obs.(oi) <- c :: per_obs.(oi))
    done;
    if Array.exists (fun l -> l = []) per_obs then
      { multiplets = []; minimum = None; complete = true; nodes = 0 }
    else begin
      (* With an upper bound only covers strictly smaller than it are
         enumerated: an empty result then proves the bound (the caller's
         known cover) is already minimum. *)
      let ub = Option.value upper_bound ~default:max_int in
      let best = ref (min (max_size + 1) ub) in
      let solutions = Hashtbl.create 16 in
      let nodes = ref 0 in
      let complete = ref true in
      let record chosen =
        let size = List.length chosen in
        if size <= max_size && size < ub then begin
          if size < !best then begin
            best := size;
            Hashtbl.reset solutions
          end;
          if size = !best && Hashtbl.length solutions < max_solutions then begin
            let key = List.sort compare chosen in
            Hashtbl.replace solutions key ()
          end
        end
      in
      (* Branch on the uncovered observation with the fewest explainers
         (most constrained first), trying each of its candidates. *)
      let rec go uncovered chosen =
        incr nodes;
        if !nodes > node_budget then complete := false
        else if Bitvec.is_empty uncovered then record chosen
        else if List.length chosen + 1 <= !best then begin
          let pivot = ref (-1) in
          let pivot_width = ref max_int in
          Bitvec.iter_set uncovered (fun oi ->
              let width = List.length per_obs.(oi) in
              if width < !pivot_width then begin
                pivot_width := width;
                pivot := oi
              end);
          List.iter
            (fun c ->
              if (not (List.mem c chosen)) && !complete then begin
                let remaining = Bitvec.copy uncovered in
                Bitvec.diff_into ~dst:remaining covers.(c);
                go remaining (c :: chosen)
              end)
            per_obs.(!pivot)
        end
      in
      let all = Bitvec.create nobs in
      Bitvec.fill all true;
      go all [];
      let multiplets =
        Hashtbl.fold (fun key () acc -> List.map (fun c -> candidates.(c)) key :: acc)
          solutions []
        |> List.sort compare
      in
      let minimum = if multiplets = [] then None else Some !best in
      { multiplets; minimum; complete = !complete; nodes = !nodes }
    end
  end

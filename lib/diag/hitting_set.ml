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

let solve ?(node_budget = default_node_budget) ?(max_size = 12) ?covers ?(seed = []) m =
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
    let solver = Exact_cover.Solver.create () in
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
        Exact_cover.Solver.add_set solver (Array.of_list per_obs.(oi));
        let o =
          Exact_cover.Solver.solve ~upper_bound:ub
            ~node_budget:(node_budget - !nodes) solver
        in
        nodes := !nodes + o.Exact_cover.Solver.nodes;
        ub_cuts := !ub_cuts + o.Exact_cover.Solver.ub_cuts;
        if not o.Exact_cover.Solver.proved then
          (* Budget exhausted mid-proof: no minimality claim.  The
             caller falls back to its seed. *)
          finish
            { cover = seed; minimum = None; complete = false; improved = false;
              iterations = !iterations; nodes = !nodes }
        else begin
          match o.Exact_cover.Solver.hitting with
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

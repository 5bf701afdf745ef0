(* Reference PODEM: the same search as [Podem], with the straightforward
   implication it replaced — two full [Ternary_sim] sweeps (good machine,
   then faulty machine with the site forced) per decision and whole-
   netlist scans for detection, X-path and D-frontier — and backtracking
   that flips a decision by re-implying the whole assignment.  Kept only
   as the differential oracle for [Podem]'s incremental dual-rail engine
   and its undo trail. *)

open Scalar_logic

type result = Podem.result = Test of bool array | Untestable | Aborted

type machines = { good : v3 array; faulty : v3 array }

let imply t fault pi_assign =
  let good = Ternary_sim.simulate t pi_assign in
  let faulty =
    Ternary_sim.simulate_forced t pi_assign
      [ (fault.Fault_list.site, v3_of_bool fault.Fault_list.stuck) ]
  in
  { good; faulty }

let is_d m n =
  match (m.good.(n), m.faulty.(n)) with
  | V0, V1 | V1, V0 -> true
  | (V0 | V1 | X), _ -> false

let is_potential m n =
  v3_equal m.good.(n) X || v3_equal m.faulty.(n) X

let detected t m =
  Array.exists (fun po -> is_d m po) (Netlist.pos t)

(* Can the fault effect still reach an output?  BFS from every D net
   through nets that are D or undecided (X in either machine). *)
let x_path_exists t m =
  let n = Netlist.num_nets t in
  let seen = Array.make n false in
  let queue = Queue.create () in
  for i = 0 to n - 1 do
    if is_d m i then begin
      seen.(i) <- true;
      Queue.add i queue
    end
  done;
  let found = ref false in
  while (not !found) && not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    if Netlist.is_po t v then found := true
    else
      Array.iter
        (fun w ->
          if (not seen.(w)) && (is_d m w || is_potential m w) then begin
            seen.(w) <- true;
            Queue.add w queue
          end)
        (Netlist.fanout t v)
  done;
  !found

(* The gate objective to pursue next: excite the fault if not excited,
   otherwise extend the D-frontier. *)
let objective t fault m =
  let site = fault.Fault_list.site in
  if v3_equal m.good.(site) X then
    Some (site, not fault.Fault_list.stuck)
  else begin
    (* D-frontier: a net with undecided value having at least one D
       fanin.  Pursue the non-controlling value on one of its X inputs. *)
    let result = ref None in
    let order = Netlist.topo_order t in
    let i = ref 0 in
    while !result = None && !i < Array.length order do
      let g = order.(!i) in
      incr i;
      if is_potential m g && not (Netlist.is_pi t g) then begin
        let fanin = Netlist.fanin t g in
        if Array.exists (fun src -> is_d m src) fanin then begin
          let x_input =
            Array.find_opt (fun src -> v3_equal m.good.(src) X) fanin
          in
          match x_input with
          | Some src ->
            let v =
              match Gate.controlling (Netlist.kind t g) with
              | Some c -> not c
              | None -> false
            in
            result := Some (src, v)
          | None -> ()
        end
      end
    done;
    !result
  end

(* Walk an objective down to an unassigned primary input. *)
let backtrace t m (net0, v0) =
  let rec walk net v guard =
    if guard = 0 then None
    else if Netlist.is_pi t net then Some (net, v)
    else
      let kind = Netlist.kind t net in
      let fanin = Netlist.fanin t net in
      match kind with
      | Gate.Input -> Some (net, v)
      | Gate.Const _ -> None
      | Gate.Buf -> walk fanin.(0) v (guard - 1)
      | Gate.Not -> walk fanin.(0) (not v) (guard - 1)
      | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
        let v_eff = if Gate.inversion kind then not v else v in
        (match Array.find_opt (fun src -> v3_equal m.good.(src) X) fanin with
        | Some src -> walk src v_eff (guard - 1)
        | None -> None)
      | Gate.Xor | Gate.Xnor ->
        let v_eff = if Gate.inversion kind then not v else v in
        (match Array.find_opt (fun src -> v3_equal m.good.(src) X) fanin with
        | Some src ->
          let parity_known =
            Array.fold_left
              (fun acc other ->
                if other = src then acc
                else
                  match m.good.(other) with
                  | V1 -> not acc
                  | V0 | X -> acc)
              false fanin
          in
          walk src (v_eff <> parity_known) (guard - 1)
        | None -> None)
  in
  walk net0 v0 (Netlist.num_nets t + 1)

type decision = { pi_pos : int; mutable value : bool; mutable flipped : bool }

(* The result and the backtracks taken (an aborted run counts
   limit + 1, as [Podem.run]'s work does). *)
let generate ?(backtrack_limit = 512) ?(fill_seed = 7) t fault =
  let npis = Netlist.num_pis t in
  let pis = Netlist.pis t in
  let pi_pos_of_net = Hashtbl.create npis in
  Array.iteri (fun i pi -> Hashtbl.add pi_pos_of_net pi i) pis;
  let pi_assign = Array.make npis X in
  let stack = ref [] in
  let backtracks = ref 0 in
  let aborted = ref false in
  let rng = Rng.create (fill_seed + (fault.Fault_list.site * 2) + Bool.to_int fault.stuck) in
  let rec solve m =
    if detected t m then begin
      let pattern =
        Array.map
          (fun v -> match bool_of_v3 v with Some b -> b | None -> Rng.bool rng)
          pi_assign
      in
      Some pattern
    end
    else begin
      let conflict =
        (* Fault can no longer be excited, or no propagation path
           remains: every extension of this assignment fails too. *)
        (match bool_of_v3 m.good.(fault.Fault_list.site) with
        | Some b -> b = fault.Fault_list.stuck
        | None -> false)
        || ((not (v3_equal m.good.(fault.Fault_list.site) X))
           && not (x_path_exists t m))
      in
      if conflict then backtrack ()
      else
        match objective t fault m with
        | None -> backtrack ()
        | Some obj -> (
          match backtrace t m obj with
          | None -> backtrack ()
          | Some (pi_net, v) ->
            let pos = Hashtbl.find pi_pos_of_net pi_net in
            pi_assign.(pos) <- v3_of_bool v;
            stack := { pi_pos = pos; value = v; flipped = false } :: !stack;
            solve (imply t fault pi_assign))
    end
  and backtrack () =
    incr backtracks;
    if !backtracks > backtrack_limit then begin
      aborted := true;
      None
    end
    else begin
      let rec pop () =
        match !stack with
        | [] -> None (* decision space exhausted *)
        | d :: rest ->
          if d.flipped then begin
            pi_assign.(d.pi_pos) <- X;
            stack := rest;
            pop ()
          end
          else begin
            d.flipped <- true;
            d.value <- not d.value;
            pi_assign.(d.pi_pos) <- v3_of_bool d.value;
            Some ()
          end
      in
      match pop () with
      | Some () -> solve (imply t fault pi_assign)
      | None -> None
    end
  in
  let result =
    match solve (imply t fault pi_assign) with
    | Some pattern -> Test pattern
    | None -> if !aborted then Aborted else Untestable
  in
  (result, !backtracks)

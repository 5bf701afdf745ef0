let simulate_forced t pi_values forced =
  let npis = Netlist.num_pis t in
  if Array.length pi_values <> npis then
    invalid_arg "Ternary_sim: PI vector width mismatch";
  let n = Netlist.num_nets t in
  let values = Array.make n Scalar_logic.X in
  Array.iteri (fun i pi -> values.(pi) <- pi_values.(i)) (Netlist.pis t);
  let forced_tbl = Hashtbl.create 8 in
  List.iter (fun (net, v) -> Hashtbl.replace forced_tbl net v) forced;
  Array.iter
    (fun net ->
      match Hashtbl.find_opt forced_tbl net with
      | Some v -> values.(net) <- v
      | None ->
        if not (Netlist.is_pi t net) then
          let args =
            Array.to_list (Array.map (fun src -> values.(src)) (Netlist.fanin t net))
          in
          values.(net) <- Scalar_logic.eval_v3 (Netlist.kind t net) args)
    (Netlist.topo_order t);
  values

let simulate t pi_values = simulate_forced t pi_values []

let x_reach t pattern site =
  let pi_values = Array.map Scalar_logic.v3_of_bool pattern in
  let values = simulate_forced t pi_values [ (site, Scalar_logic.X) ] in
  let out = ref [] in
  let pos = Netlist.pos t in
  for oi = Array.length pos - 1 downto 0 do
    if Scalar_logic.v3_equal values.(pos.(oi)) Scalar_logic.X then out := oi :: !out
  done;
  !out

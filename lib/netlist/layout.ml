type t = { net : Netlist.t; pos : (float * float) array }

let default_radius = 2.5

let synthesize net =
  let n = Netlist.num_nets net in
  let pos = Array.make n (0.0, 0.0) in
  (* Column per level; rows assigned in net-id order within the level,
     centred so that columns of different heights overlap in y. *)
  let depth = Netlist.depth net in
  let row_count = Array.make (depth + 1) 0 in
  Netlist.iter_nets net (fun m ->
      let l = Netlist.level net m in
      row_count.(l) <- row_count.(l) + 1);
  let next_row = Array.make (depth + 1) 0 in
  Netlist.iter_nets net (fun m ->
      let l = Netlist.level net m in
      let row = next_row.(l) in
      next_row.(l) <- row + 1;
      let y = float_of_int row -. (float_of_int (row_count.(l) - 1) /. 2.0) in
      pos.(m) <- (float_of_int l, y));
  { net; pos }

let distance t a b =
  let xa, ya = t.pos.(a) and xb, yb = t.pos.(b) in
  let dx = xa -. xb and dy = ya -. yb in
  sqrt ((dx *. dx) +. (dy *. dy))

let neighbors t ~radius m =
  let out = ref [] in
  for other = Netlist.num_nets t.net - 1 downto 0 do
    if other <> m then begin
      let d = distance t m other in
      if d <= radius then out := (d, other) :: !out
    end
  done;
  List.map snd (List.sort compare !out)

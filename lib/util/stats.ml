let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let histogram ~bins ~lo ~hi xs =
  assert (bins > 0 && hi > lo);
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  let bucket x =
    let b = int_of_float ((x -. lo) /. width) in
    max 0 (min (bins - 1) b)
  in
  List.iter (fun x -> counts.(bucket x) <- counts.(bucket x) + 1) xs;
  counts

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let pp_model net = function
  | Noassume.Stuck_at v -> Printf.sprintf "stuck-at-%d" (Bool.to_int v)
  | Noassume.Bridge_victim ags ->
    Printf.sprintf "bridge victim (aggressors: %s)"
      (String.concat ", " (List.map (Netlist.name net) ags))
  | Noassume.Bridge_confirmed { aggressor; kind } ->
    let k =
      match kind with
      | Defect.Dominant -> "dominant"
      | Defect.Wired_and -> "wired-AND"
      | Defect.Wired_or -> "wired-OR"
    in
    Printf.sprintf "CONFIRMED %s bridge with %s (validated by simulation)" k
      (Netlist.name net aggressor)
  | Noassume.Byzantine -> "byzantine (open / intermittent / feedback bridge)"

let render net (r : Noassume.result) =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "multiplet (%d members, %d candidates considered):\n"
    (List.length r.multiplet) r.candidates_considered;
  List.iter (fun f -> Printf.bprintf buf "  %s\n" (Fault_list.to_string net f)) r.multiplet;
  Printf.bprintf buf "callouts:\n";
  List.iteri
    (fun i (c : Noassume.callout) ->
      Printf.bprintf buf "  #%d %s (explains %d observations)\n" (i + 1)
        (Netlist.name net c.site) c.explained_obs;
      List.iter (fun m -> Printf.bprintf buf "      model: %s\n" (pp_model net m)) c.models)
    r.callouts;
  Printf.bprintf buf "match: %s\n"
    (Format.asprintf "%a" Scoring.pp r.score);
  Buffer.contents buf

let render_single net (r : Single_diag.result) =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "single-fault baseline, best candidates:\n";
  List.iter
    (fun (rk : Single_diag.ranked) ->
      Printf.bprintf buf "  %s (%s)\n" (Fault_list.to_string net rk.fault)
        (Format.asprintf "%a" Scoring.pp rk.score))
    r.best;
  Buffer.contents buf

let render_slat net (r : Slat_diag.result) =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "SLAT baseline: %d patterns ignored as non-SLAT\n"
    (List.length r.classification.non_slat);
  Printf.bprintf buf "multiplet:\n";
  List.iter (fun f -> Printf.bprintf buf "  %s\n" (Fault_list.to_string net f)) r.multiplet;
  Printf.bprintf buf "match: %s\n" (Format.asprintf "%a" Scoring.pp r.score);
  Buffer.contents buf

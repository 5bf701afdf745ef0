(* Campaign example: how diagnosis quality behaves as the number of
   simultaneous defects grows, on one circuit.

   Run with: dune exec examples/campaign_multiplicity.exe [circuit] *)

let () =
  let circuit = if Array.length Sys.argv > 1 then Sys.argv.(1) else "add8" in
  let net =
    match Generators.find_suite circuit with
    | Some n -> n
    | None ->
      prerr_endline ("unknown circuit " ^ circuit);
      exit 1
  in
  Format.printf "circuit %s: %a@." circuit Netlist.pp_stats net;
  let table =
    Table.create
      ~title:(Printf.sprintf "Diagnosis quality vs defect multiplicity (%s)" circuit)
      [
        ("k", Table.Right); ("SLAT patterns", Table.Right);
        ("diagnosability", Table.Right); ("success", Table.Right);
        ("resolution", Table.Right);
      ]
  in
  List.iter
    (fun k ->
      let c =
        Campaign.run ~methods:Campaign.only_noassume ~name:circuit net ~multiplicity:k
          ~trials:10 ~seed:(1000 + k)
      in
      let qs = Campaign.qualities c (fun o -> o.Campaign.noassume) in
      let diag, success, resolution = Metrics.aggregate qs in
      Table.add_row table
        [
          Table.cell_int k;
          Table.cell_pct (Campaign.mean_slat_fraction c);
          Table.cell_pct diag;
          Table.cell_pct success;
          Table.cell_float resolution;
        ])
    [ 1; 2; 3; 4; 5 ];
  print_endline (Table.render table);
  print_endline
    "Reading: the SLAT-pattern share decays with multiplicity (defect\n\
     interaction), yet diagnosability degrades slowly because explanation\n\
     is per failing output, not per pattern."

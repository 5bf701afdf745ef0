(* Smoke tests for the experiment drivers: each table renders non-empty
   output with its declared header.  Campaign cells use 1-2 trials to
   keep the suite fast; numerical shapes are covered by the bench. *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let check_renders name table expected_words =
  let s = Table.render table in
  Alcotest.(check bool) (name ^ " non-empty") true (String.length s > 50);
  List.iter
    (fun w ->
      Alcotest.(check bool) (Printf.sprintf "%s mentions %s" name w) true
        (contains ~needle:w s))
    expected_words

let test_table1 () = check_renders "table1" (Tables.table1 ()) [ "c17"; "coverage"; "rnd2k" ]

let table2 = lazy (Tables.table2 ~trials:1 ~seed:5)

let test_table2 () = check_renders "table2" (Lazy.force table2) [ "c17"; "k=5"; "%" ]

let test_table3 () =
  check_renders "table3" (Tables.table3 ~trials:1 ~seed:5) [ "diagnosability"; "alu8" ]

let test_table4 () =
  check_renders "table4"
    (Tables.table4 ~trials:1 ~seed:5)
    [ "proposed (no-assumption)"; "SLAT-based"; "single-fault" ]

let test_table5 () =
  check_renders "table5"
    (Tables.table5 ~trials:1 ~seed:5)
    [ "stuck"; "bridge"; "open"; "intermittent"; "mixed" ]

let test_table6 () =
  check_renders "table6"
    (Tables.table6 ~trials:1 ~seed:5)
    [ "full dict KiB"; "proposed k=3" ]

let test_ablation_layout () =
  check_renders "ablation-layout"
    (Tables.ablation_layout ~trials:1 ~seed:5)
    [ "layout-aware"; "layout-blind" ]

let test_ablation_exact () =
  check_renders "ablation-exact"
    (Tables.ablation_exact ~trials:1 ~seed:5)
    [ "greedy minimal"; "exact min" ]

let test_fig2 () = check_renders "fig2" (Tables.fig2 ~trials:1 ~seed:5) [ "proposed"; "8" ]

let test_fig3 () = check_renders "fig3" (Tables.fig3 ~trials:1 ~seed:5) [ "resolution" ]

let test_fig4 () = check_renders "fig4" (Tables.fig4 ~trials:1 ~seed:5) [ "patterns"; "256" ]

let test_fig6 () =
  check_renders "fig6"
    (Tables.fig6 ~trials:1 ~seed:5)
    [ "N-detect"; "patterns (mean)"; "5" ]

let test_ablations () =
  check_renders "ablation-validate"
    (Tables.ablation_validate ~trials:1 ~seed:5)
    [ "validate on"; "validate off" ];
  check_renders "ablation-tiebreak"
    (Tables.ablation_tiebreak ~trials:1 ~seed:5)
    [ "tie-break on"; "tie-break off" ];
  check_renders "ablation-perpattern"
    (Tables.ablation_perpattern ~trials:1 ~seed:5)
    [ "per-output (proposed)"; "per-pattern (SLAT-style)" ]

(* The circuits a campaign table has rows for: the first cell of each
   row of table 2 after the header. *)
let test_campaign_circuits_subset () =
  let names =
    String.split_on_char '\n' (Table.render (Lazy.force table2))
    |> List.filter_map (fun l ->
           match String.split_on_char '|' l with
           | "" :: cell :: _ -> Some (String.trim cell)
           | _ -> None)
    |> List.tl
  in
  Alcotest.(check bool) "has c17" true (List.mem "c17" names);
  Alcotest.(check bool) "no rnd2k" false (List.mem "rnd2k" names);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " in suite") true (Generators.find_suite n <> None))
    names

let suite =
  [
    ( "tables",
      [
        Alcotest.test_case "table1" `Slow test_table1;
        Alcotest.test_case "table2" `Quick test_table2;
        Alcotest.test_case "table3" `Quick test_table3;
        Alcotest.test_case "table4" `Quick test_table4;
        Alcotest.test_case "table5" `Quick test_table5;
        Alcotest.test_case "table6" `Slow test_table6;
        Alcotest.test_case "ablation layout" `Quick test_ablation_layout;
        Alcotest.test_case "ablation exact" `Quick test_ablation_exact;
        Alcotest.test_case "fig2" `Quick test_fig2;
        Alcotest.test_case "fig3" `Quick test_fig3;
        Alcotest.test_case "fig4" `Quick test_fig4;
        Alcotest.test_case "fig6" `Quick test_fig6;
        Alcotest.test_case "ablations" `Quick test_ablations;
        Alcotest.test_case "campaign circuit subset" `Quick test_campaign_circuits_subset;
      ] );
  ]

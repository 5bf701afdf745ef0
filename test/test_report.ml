let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let problem defects =
  let net = Generators.c17 () in
  let pats = Pattern.exhaustive ~npis:5 in
  let expected = Logic_sim.responses net pats in
  let observed = Injection.observed_responses net pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  (net, pats, dlog)

let g net name = Option.get (Netlist.find net name)

let test_render_noassume () =
  let net = Generators.c17 () in
  let net, pats, dlog = problem [ Defect.Stuck (g net "G16", true) ] in
  let r = Noassume.diagnose_session (Session.create net pats) dlog in
  let s = Report.render net r in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true (contains ~needle s))
    [ "multiplet"; "callouts"; "match:"; "#1" ];
  (* Every callout site's name appears. *)
  List.iter
    (fun (c : Noassume.callout) ->
      Alcotest.(check bool) "site named" true (contains ~needle:(Netlist.name net c.site) s))
    r.Noassume.callouts

let test_render_single () =
  let net = Generators.c17 () in
  let net, pats, dlog = problem [ Defect.Stuck (g net "G10", false) ] in
  let r = Single_diag.diagnose_session (Session.create net pats) dlog in
  let s = Report.render_single net r in
  Alcotest.(check bool) "header" true (contains ~needle:"single-fault baseline" s);
  Alcotest.(check bool) "has sa notation" true (contains ~needle:" sa" s)

let test_render_slat () =
  let net = Generators.c17 () in
  let net, pats, dlog = problem [ Defect.Stuck (g net "G19", true) ] in
  let m = Explain.build_session (Session.create net pats) dlog in
  let r = Slat_diag.diagnose m in
  let s = Report.render_slat net r in
  Alcotest.(check bool) "header" true (contains ~needle:"SLAT baseline" s);
  Alcotest.(check bool) "ignored count" true (contains ~needle:"non-SLAT" s)

let test_csv_export () =
  let t = Table.create [ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "plain"; "1" ];
  Table.add_rule t;
  Table.add_row t [ "with,comma"; "quote\"inside" ];
  let csv = Table.to_csv t in
  Alcotest.(check string) "csv"
    "name,value\nplain,1\n\"with,comma\",\"quote\"\"inside\"\n" csv

let suite =
  [
    ( "report",
      [
        Alcotest.test_case "render noassume" `Quick test_render_noassume;
        Alcotest.test_case "render single" `Quick test_render_single;
        Alcotest.test_case "render slat" `Quick test_render_slat;
        Alcotest.test_case "csv export" `Quick test_csv_export;
      ] );
  ]

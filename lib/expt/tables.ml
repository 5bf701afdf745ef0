(* The suite circuits injection campaigns run on: the small and medium
   ones (the large ones appear in Table 1 and the runtime figure). *)
let campaign_names =
  [
    "c17"; "par16"; "dec4"; "gray8"; "add8"; "penc4"; "crc16"; "cmp16"; "cla16";
    "mux5"; "maj9"; "bshift4"; "alu8";
  ]

let campaign_circuits () =
  List.filter (fun (name, _) -> List.mem name campaign_names) (Generators.suite ())

let multiplicities = [ 1; 2; 3; 4; 5 ]

(* Stable per-cell seed so each table is reproducible independently of
   evaluation order. *)
let cell_seed seed name multiplicity =
  let h = Hashtbl.hash (name, multiplicity) land 0xFFFF in
  (seed * 65_536) + h

let table1 () =
  let open Table in
  let t =
    create ~title:"Table 1: benchmark circuit characteristics"
      [
        ("circuit", Left); ("PIs", Right); ("POs", Right); ("gates", Right);
        ("nets", Right); ("depth", Right); ("faults", Right); ("patterns", Right);
        ("coverage", Right);
      ]
  in
  List.iter
    (fun (name, net) ->
      let report = Campaign.test_report net in
      let collapsed = Fault_list.collapse net in
      add_row t
        [
          name;
          cell_int (Netlist.num_pis net);
          cell_int (Netlist.num_pos net);
          cell_int (Netlist.num_gates net);
          cell_int (Netlist.num_nets net);
          cell_int (Netlist.depth net);
          cell_int (Fault_list.num_classes collapsed);
          cell_int (Pattern.count report.Tpg.patterns);
          cell_pct report.Tpg.coverage;
        ])
    (Generators.suite ());
  t

let table2 ~trials ~seed =
  let open Table in
  let t =
    create ~title:"Table 2: fraction of failing patterns that are SLAT vs multiplicity"
      (("circuit", Left) :: List.map (fun m -> (Printf.sprintf "k=%d" m, Right)) multiplicities)
  in
  List.iter
    (fun (name, net) ->
      let cells =
        List.map
          (fun m ->
            let c =
              Campaign.run ~methods:Campaign.classification_only ~name net
                ~multiplicity:m ~trials ~seed:(cell_seed seed name m)
            in
            cell_pct (Campaign.mean_slat_fraction c))
          multiplicities
      in
      add_row t (name :: cells))
    (campaign_circuits ());
  t

let quality_cells qs =
  let diag, success, resolution = Metrics.aggregate qs in
  [ Table.cell_pct diag; Table.cell_pct success; Table.cell_float resolution ]

let table3 ~trials ~seed =
  let open Table in
  let t =
    create ~title:"Table 3: proposed method vs defect multiplicity"
      [
        ("circuit", Left); ("k", Right); ("diagnosability", Right);
        ("success", Right); ("resolution", Right); ("fail pats", Right);
      ]
  in
  List.iter
    (fun (name, net) ->
      List.iter
        (fun m ->
          let c =
            Campaign.run ~methods:Campaign.only_noassume ~name net ~multiplicity:m
              ~trials ~seed:(cell_seed seed name m)
          in
          let qs = Campaign.qualities c (fun o -> o.Campaign.noassume) in
          let mean_fail =
            Stats.mean
              (List.map (fun o -> float_of_int o.Campaign.num_failing) c.Campaign.outcomes)
          in
          add_row t
            ((name :: cell_int m :: quality_cells qs) @ [ cell_float mean_fail ]))
        multiplicities;
      Table.add_rule t)
    (campaign_circuits ());
  t

let table4 ~trials ~seed =
  let open Table in
  let t =
    create
      ~title:
        "Table 4: proposed vs SLAT-based vs single-fault baseline (aggregate over circuits)"
      [
        ("k", Right); ("method", Left); ("diagnosability", Right); ("success", Right);
        ("resolution", Right);
      ]
  in
  List.iter
    (fun m ->
      let campaigns =
        List.map
          (fun (name, net) ->
            Campaign.run ~methods:Campaign.all_methods ~name net ~multiplicity:m
              ~trials ~seed:(cell_seed seed name m))
          (campaign_circuits ())
      in
      let gather select =
        List.concat_map (fun c -> Campaign.qualities c select) campaigns
      in
      add_row t
        ((cell_int m :: "proposed (no-assumption)" :: [])
        @ quality_cells (gather (fun o -> o.Campaign.noassume)));
      add_row t
        (("" :: "SLAT-based" :: []) @ quality_cells (gather (fun o -> o.Campaign.slat)));
      add_row t
        (("" :: "single-fault" :: [])
        @ quality_cells (gather (fun o -> o.Campaign.single)));
      Table.add_rule t)
    multiplicities;
  t

let table5 ~trials ~seed =
  let open Table in
  let t =
    create ~title:"Table 5: per-defect-type quality at multiplicity 2 (aggregate)"
      [
        ("defect type", Left); ("diagnosability", Right); ("success", Right);
        ("resolution", Right);
      ]
  in
  List.iter
    (fun kind ->
      let mix =
        match Injection.mix_of_string kind with Some m -> m | None -> assert false
      in
      let qs =
        List.concat_map
          (fun (name, net) ->
            let c =
              Campaign.run ~methods:Campaign.only_noassume ~mix ~name net
                ~multiplicity:2 ~trials ~seed:(cell_seed seed (name ^ kind) 2)
            in
            Campaign.qualities c (fun o -> o.Campaign.noassume))
          (campaign_circuits ())
      in
      add_row t (kind :: quality_cells qs))
    [ "stuck"; "bridge"; "open"; "intermittent"; "mixed" ];
  t

let table6 ~trials ~seed =
  let open Table in
  let t =
    create
      ~title:
        "Table 6: fault-dictionary baseline vs the proposed method (storage and accuracy)"
      [
        ("circuit", Left); ("faults", Right); ("full dict KiB", Right);
        ("p/f dict KiB", Right); ("build ms", Right); ("dict k=1", Right);
        ("dict k=3", Right); ("proposed k=3", Right);
      ]
  in
  List.iter
    (fun (name, net) ->
      let pats = Campaign.test_set net in
      let t0 = Sys.time () in
      let session = Session.create net pats in
      let full = Dict_diag.build_session Dict_diag.Full_response session in
      let build_ms = (Sys.time () -. t0) *. 1000.0 in
      let passfail = Dict_diag.build_session Dict_diag.Pass_fail session in
      let expected = Logic_sim.responses net pats in
      let run_dict k =
        let rng = Rng.create (cell_seed seed (name ^ "dict") k) in
        let qs = ref [] in
        for _ = 1 to trials do
          match fst (Campaign.failing_die rng net pats ~expected ~multiplicity:k) with
          | None -> ()
          | Some (defects, dlog) ->
            let defects = Injection.contributing net pats defects in
            let r = Dict_diag.diagnose full dlog in
            qs :=
              Metrics.evaluate net ~injected:defects
                ~callouts:(Single_diag.callout_nets r)
              :: !qs
        done;
        let diag, _, _ = Metrics.aggregate !qs in
        diag
      in
      let proposed_k3 =
        let c =
          Campaign.run ~methods:Campaign.only_noassume ~name net ~multiplicity:3 ~trials
            ~seed:(cell_seed seed (name ^ "prop") 3)
        in
        let diag, _, _ =
          Metrics.aggregate (Campaign.qualities c (fun o -> o.Campaign.noassume))
        in
        diag
      in
      add_row t
        [
          name;
          cell_int (Dict_diag.num_entries full);
          cell_float (float_of_int (Dict_diag.size_bits full) /. 8192.0);
          cell_float (float_of_int (Dict_diag.size_bits passfail) /. 8192.0);
          cell_float build_ms;
          cell_pct (run_dict 1);
          cell_pct (run_dict 3);
          cell_pct proposed_k3;
        ])
    (campaign_circuits ());
  t

let fig1 ~trials =
  let open Table in
  let t =
    create ~title:"Figure 1: diagnosis runtime vs circuit size (mean per trial)"
      [ ("circuit", Left); ("gates", Right); ("candidates", Right); ("ms/diagnosis", Right) ]
  in
  List.iter
    (fun (name, net) ->
      let pats = Campaign.test_set net in
      let session = Session.create net pats in
      let expected = Logic_sim.responses net pats in
      let rng = Rng.create 42 in
      let times = ref [] in
      let cands = ref 0 in
      for _ = 1 to trials do
        match fst (Campaign.failing_die rng net pats ~expected ~multiplicity:3) with
        | None -> ()
        | Some (_, dlog) ->
          let t0 = Sys.time () in
          let r = Noassume.diagnose_session session dlog in
          let t1 = Sys.time () in
          cands := max !cands r.Noassume.candidates_considered;
          times := ((t1 -. t0) *. 1000.0) :: !times
      done;
      add_row t
        [
          name;
          cell_int (Netlist.num_gates net);
          cell_int !cands;
          cell_float (Stats.mean !times);
        ])
    (Generators.suite ());
  t

let bar width frac =
  let n = int_of_float (frac *. float_of_int width) in
  String.make (max 0 (min width n)) '#'

let fig2 ~trials ~seed =
  let open Table in
  let t =
    create ~title:"Figure 2: diagnosability vs multiplicity (aggregate over circuits)"
      [
        ("k", Right); ("proposed", Right); ("bar", Left); ("SLAT-based", Right);
        ("bar ", Left);
      ]
  in
  List.iter
    (fun m ->
      let gather select =
        List.concat_map
          (fun (name, net) ->
            if Injection.capacity net < m + 2 then []
            else
              let c =
                Campaign.run
                  ~methods:
                    { Campaign.run_noassume = true; run_slat = true; run_single = false }
                  ~name net ~multiplicity:m ~trials ~seed:(cell_seed seed name m)
              in
              Campaign.qualities c select)
          (campaign_circuits ())
      in
      let d_prop, _, _ = Metrics.aggregate (gather (fun o -> o.Campaign.noassume)) in
      let d_slat, _, _ = Metrics.aggregate (gather (fun o -> o.Campaign.slat)) in
      add_row t
        [ cell_int m; cell_pct d_prop; bar 30 d_prop; cell_pct d_slat; bar 30 d_slat ])
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  t

let fig3 ~trials ~seed =
  let open Table in
  let t =
    create ~title:"Figure 3: resolution distribution at multiplicity 3"
      [ ("resolution", Left); ("trials", Right); ("bar", Left) ]
  in
  let resolutions =
    List.concat_map
      (fun (name, net) ->
        let c =
          Campaign.run ~methods:Campaign.only_noassume ~name net ~multiplicity:3
            ~trials ~seed:(cell_seed seed name 3)
        in
        List.map
          (fun q -> q.Metrics.resolution)
          (Campaign.qualities c (fun o -> o.Campaign.noassume)))
      (campaign_circuits ())
  in
  let bins = 8 in
  let hist = Stats.histogram ~bins ~lo:0.0 ~hi:4.0 resolutions in
  let total = List.length resolutions in
  Array.iteri
    (fun i count ->
      let lo = 4.0 *. float_of_int i /. float_of_int bins in
      let hi = 4.0 *. float_of_int (i + 1) /. float_of_int bins in
      add_row t
        [
          Printf.sprintf "%.1f-%.1f" lo hi;
          cell_int count;
          bar 40 (Stats.ratio count (max 1 total));
        ])
    hist;
  t

let fig4 ~trials ~seed =
  let open Table in
  let t =
    create ~title:"Figure 4: diagnosability vs test-set size (random patterns, k=3)"
      [ ("patterns", Right); ("diagnosability", Right); ("success", Right); ("bar", Left) ]
  in
  List.iter
    (fun npat ->
      let qs =
        List.concat_map
          (fun (name, net) ->
            let rng = Rng.create (cell_seed seed name npat) in
            let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:npat in
            let c =
              Campaign.run ~methods:Campaign.only_noassume ~patterns:pats ~name net
                ~multiplicity:3 ~trials ~seed:(cell_seed seed name (npat + 7))
            in
            Campaign.qualities c (fun o -> o.Campaign.noassume))
          (campaign_circuits ())
      in
      let diag, success, _ = Metrics.aggregate qs in
      add_row t [ cell_int npat; cell_pct diag; cell_pct success; bar 30 diag ])
    [ 16; 32; 64; 128; 256 ];
  t

let ablation ~title ~configs ~trials ~seed =
  let open Table in
  let t =
    create ~title
      [
        ("variant", Left); ("k", Right); ("diagnosability", Right); ("success", Right);
        ("resolution", Right);
      ]
  in
  List.iter
    (fun (label, config) ->
      List.iter
        (fun m ->
          let qs =
            List.concat_map
              (fun (name, net) ->
                let c =
                  Campaign.run ~methods:Campaign.only_noassume ~config ~name net
                    ~multiplicity:m ~trials ~seed:(cell_seed seed name m)
                in
                Campaign.qualities c (fun o -> o.Campaign.noassume))
              (campaign_circuits ())
          in
          add_row t ((label :: cell_int m :: []) @ quality_cells qs))
        [ 2; 4 ];
      Table.add_rule t)
    configs;
  t

let fig6 ~trials ~seed =
  let open Table in
  let t =
    create
      ~title:"Figure 6: diagnosability vs N-detect test sets (k=2, aggregate over circuits)"
      [
        ("N", Right); ("patterns (mean)", Right); ("diagnosability", Right);
        ("success", Right); ("resolution", Right); ("bar", Left);
      ]
  in
  List.iter
    (fun ndetect ->
      let sizes = ref [] in
      let qs =
        List.concat_map
          (fun (name, net) ->
            let report = Campaign.flow_report ~detections:ndetect net in
            sizes := float_of_int (Pattern.count report.Tpg.patterns) :: !sizes;
            let c =
              Campaign.run ~methods:Campaign.only_noassume
                ~patterns:report.Tpg.patterns ~name net ~multiplicity:2 ~trials
                ~seed:(cell_seed seed (name ^ "nd") ndetect)
            in
            Campaign.qualities c (fun o -> o.Campaign.noassume))
          (campaign_circuits ())
      in
      let diag, success, resolution = Metrics.aggregate qs in
      add_row t
        [
          cell_int ndetect;
          cell_float (Stats.mean !sizes);
          cell_pct diag;
          cell_pct success;
          cell_float resolution;
          bar 30 diag;
        ])
    [ 1; 2; 3; 5 ];
  t

let ablation_layout ~trials ~seed =
  let open Table in
  let t =
    create
      ~title:
        "Ablation: layout knowledge for bridge aggressor inference (bridge-only, layout-adjacent injection)"
      [
        ("circuit", Left); ("variant", Left); ("diagnosability", Right);
        ("success", Right); ("resolution", Right);
      ]
  in
  let mix = Option.get (Injection.mix_of_string "bridge") in
  List.iter
    (fun (name, net) ->
      if Netlist.num_gates net >= 30 then begin
        let placement = Layout.synthesize net in
        let layout = (placement, Layout.default_radius) in
        List.iter
          (fun (label, config) ->
            let c =
              Campaign.run ~methods:Campaign.only_noassume ~config ~mix ~layout ~name
                net ~multiplicity:2 ~trials ~seed:(cell_seed seed name 2)
            in
            let diag, success, resolution =
              Metrics.aggregate (Campaign.qualities c (fun o -> o.Campaign.noassume))
            in
            add_row t
              [ name; label; cell_pct diag; cell_pct success; cell_float resolution ])
          [
            ("layout-aware", { Noassume.default_config with layout = Some layout });
            ("layout-blind", Noassume.default_config);
          ];
        Table.add_rule t
      end)
    (campaign_circuits ());
  t

let ablation_exact ~trials ~seed =
  let open Table in
  let t =
    create
      ~title:
        "Ablation: greedy covering vs exact minimum cover (greedy-seeded implicit hitting set)"
      [
        ("k", Right); ("greedy minimal", Right); ("greedy size (mean)", Right);
        ("exact min (mean)", Right); ("nodes (mean)", Right); ("incomplete", Right);
      ]
  in
  (* One session per circuit, shared by every multiplicity row: the
     test set is fixed, so trials differ only in the datalog. *)
  let sessions =
    List.map
      (fun (name, net) -> (name, net, Session.create net (Campaign.test_set net)))
      (campaign_circuits ())
  in
  List.iter
    (fun k ->
      let minimal = ref 0 in
      let total = ref 0 in
      let greedy_sizes = ref [] in
      let exact_sizes = ref [] in
      let node_counts = ref [] in
      let incomplete = ref 0 in
      List.iter
        (fun (name, net, session) ->
          let pats = Session.patterns session in
          let expected = Logic_sim.responses net pats in
          let rng = Rng.create (cell_seed seed (name ^ "exact") k) in
          for _ = 1 to trials do
            match fst (Campaign.failing_die rng net pats ~expected ~multiplicity:k) with
            | None -> ()
            | Some (_, dlog) ->
              let m = Explain.build_session session dlog in
              let config = { Noassume.default_config with validate = false } in
              let greedy = Noassume.diagnose_matrix ~config m in
              (* Seeded as [Noassume] seeds [--cover=exact]: the greedy
                 multiplet's candidate indices bound the search. *)
              let exact =
                Hitting_set.solve ~node_budget:Hitting_set.default_node_budget
                  ~max_size:config.Noassume.max_multiplet
                  ~seed:(List.filter_map (Explain.find_candidate m) greedy.Noassume.multiplet)
                  m
              in
              if not exact.Hitting_set.complete then incr incomplete
              else begin
                incr total;
                greedy_sizes :=
                  float_of_int (List.length greedy.Noassume.multiplet) :: !greedy_sizes;
                (match exact.Hitting_set.minimum with
                | Some minimum ->
                  exact_sizes := float_of_int minimum :: !exact_sizes;
                  if List.length greedy.Noassume.multiplet = minimum then incr minimal
                | None -> ());
                node_counts := float_of_int exact.Hitting_set.nodes :: !node_counts
              end
          done)
        sessions;
      add_row t
        [
          cell_int k;
          cell_pct (Stats.ratio !minimal (max 1 !total));
          cell_float (Stats.mean !greedy_sizes);
          cell_float (Stats.mean !exact_sizes);
          cell_float ~decimals:0 (Stats.mean !node_counts);
          cell_int !incomplete;
        ])
    [ 1; 2; 3 ];
  t

let ablation_validate ~trials ~seed =
  ablation ~title:"Ablation: multiplet validation/refinement"
    ~configs:
      [
        ("validate on", Noassume.default_config);
        ("validate off", { Noassume.default_config with validate = false });
      ]
    ~trials ~seed

let ablation_tiebreak ~trials ~seed =
  ablation ~title:"Ablation: misprediction tie-break in greedy covering"
    ~configs:
      [
        ("tie-break on", Noassume.default_config);
        ("tie-break off", { Noassume.default_config with tie_break = false });
      ]
    ~trials ~seed

let ablation_perpattern ~trials ~seed =
  ablation ~title:"Ablation: per-output vs per-pattern (SLAT-style) explanation"
    ~configs:
      [
        ("per-output (proposed)", Noassume.default_config);
        ("per-pattern (SLAT-style)", { Noassume.default_config with per_pattern = true });
      ]
    ~trials ~seed

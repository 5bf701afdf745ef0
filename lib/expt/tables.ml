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
      add_rule t)
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
      add_rule t)
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
          let rec draw attempts =
            if attempts = 0 then None
            else
              let defects = Injection.random_defects rng net Injection.default_mix k in
              let observed = Injection.observed_responses net pats defects in
              let dlog = Datalog.of_responses ~expected ~observed in
              if Datalog.num_failing dlog = 0 then draw (attempts - 1)
              else Some (Injection.contributing net pats defects, dlog)
          in
          match draw 50 with
          | None -> ()
          | Some (defects, dlog) ->
            let r = Dict_diag.diagnose full dlog in
            qs :=
              Metrics.evaluate net ~injected:defects
                ~callouts:(Dict_diag.callout_nets r)
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

let table7 ~trials ~seed =
  let open Table in
  let t =
    create
      ~title:
        "Table 7: full-scan sequential designs (diagnosis on the combinational core)"
      [
        ("design", Left); ("cells", Right); ("chains", Right); ("k", Right);
        ("diagnosability", Right); ("success", Right); ("resolution", Right);
      ]
  in
  List.iter
    (fun (name, design) ->
      let core = Scan_design.core design in
      List.iter
        (fun k ->
          let c =
            Campaign.run ~methods:Campaign.only_noassume ~name core ~multiplicity:k
              ~trials ~seed:(cell_seed seed name k)
          in
          let diag, success, resolution =
            Metrics.aggregate (Campaign.qualities c (fun o -> o.Campaign.noassume))
          in
          add_row t
            [
              name;
              cell_int (Scan_design.num_cells design);
              cell_int (Scan_design.num_chains design);
              cell_int k;
              cell_pct diag;
              cell_pct success;
              cell_float resolution;
            ])
        [ 1; 2; 3 ];
      add_rule t)
    (Seq_generators.seq_suite ());
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
      let done_ = ref 0 in
      let attempts = ref 0 in
      while !done_ < trials && !attempts < trials * 20 do
        incr attempts;
        let defects = Injection.random_defects rng net Injection.default_mix 3 in
        let observed = Injection.observed_responses net pats defects in
        let dlog = Datalog.of_responses ~expected ~observed in
        if Datalog.num_failing dlog > 0 then begin
          let t0 = Sys.time () in
          let r = Noassume.diagnose_session session dlog in
          let t1 = Sys.time () in
          cands := max !cands r.Noassume.candidates_considered;
          times := ((t1 -. t0) *. 1000.0) :: !times;
          incr done_
        end
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
      add_rule t)
    configs;
  t

let table9 ~trials ~seed =
  let open Table in
  let t =
    create
      ~title:
        "Table 9: scan-chain fault diagnosis (flush classification + capture-test localisation)"
      [
        ("design", Left); ("cells", Right); ("chain+polarity found", Right);
        ("position exact", Right); ("mean candidates", Right);
      ]
  in
  List.iter
    (fun (name, d) ->
      let rng = Rng.create (cell_seed seed (name ^ "chain") 1) in
      let found = ref 0 in
      let exact = ref 0 in
      let cand_counts = ref [] in
      for _ = 1 to trials do
        let chain = Rng.int rng (Scan_design.num_chains d) in
        let len =
          let n = ref 0 in
          for cell = 0 to Scan_design.num_cells d - 1 do
            let c, _ = Scan_design.chain_position d cell in
            if c = chain then incr n
          done;
          !n
        in
        let truth =
          {
            Chain_defect.chain;
            position = Rng.int rng len;
            stuck = Rng.bool rng;
          }
        in
        let findings =
          Chain_diag.diagnose d ~flush:(fun ~chain ~fill ->
              Chain_defect.flush d (Some truth) ~chain ~fill)
        in
        (match findings.(chain) with
        | Chain_diag.Chain_stuck { stuck } when stuck = truth.Chain_defect.stuck ->
          incr found;
          let tests =
            List.init 8 (fun _ ->
                let load =
                  Array.init (Scan_design.num_cells d) (fun _ -> Rng.bool rng)
                in
                let inputs = Array.init (Scan_design.num_pis d) (fun _ -> Rng.bool rng) in
                let observed_po, observed_unload =
                  Chain_defect.observed_scan_test d (Some truth) ~load ~inputs
                in
                { Chain_diag.load; inputs; observed_po; observed_unload })
          in
          let candidates = Chain_diag.locate_position d ~chain ~stuck ~tests in
          cand_counts := float_of_int (List.length candidates) :: !cand_counts;
          if candidates = [ truth.Chain_defect.position ] then incr exact
        | Chain_diag.Chain_ok | Chain_diag.Chain_stuck _ | Chain_diag.Chain_inconsistent
          -> ())
      done;
      add_row t
        [
          name;
          cell_int (Scan_design.num_cells d);
          cell_pct (Stats.ratio !found trials);
          cell_pct (Stats.ratio !exact trials);
          cell_float (Stats.mean !cand_counts);
        ])
    (Seq_generators.seq_suite ());
  t

let table10 ~trials ~seed =
  let open Table in
  let t =
    create
      ~title:
        "Table 10: adaptive diagnosis — distinguishing patterns applied on the tester (k=1, 12 initial patterns)"
      [
        ("circuit", Left); ("hypotheses before", Right); ("hypotheses after", Right);
        ("patterns added", Right); ("diagnosability before", Right);
        ("diagnosability after", Right);
      ]
  in
  List.iter
    (fun (name, net) ->
      let rng = Rng.create (cell_seed seed (name ^ "adapt") 1) in
      let before_counts = ref [] in
      let after_counts = ref [] in
      let added = ref [] in
      let q_before = ref [] in
      let q_after = ref [] in
      for _ = 1 to trials do
        let rec draw attempts =
          if attempts = 0 then None
          else begin
            let defects = Injection.random_defects rng net Injection.default_mix 1 in
            let pats = Pattern.random rng ~npis:(Netlist.num_pis net) ~count:12 in
            let expected = Logic_sim.responses net pats in
            let observed = Injection.observed_responses net pats defects in
            let dlog = Datalog.of_responses ~expected ~observed in
            if Datalog.num_failing dlog = 0 then draw (attempts - 1)
            else Some (defects, pats, dlog)
          end
        in
        match draw 50 with
        | None -> ()
        | Some (defects, pats, dlog) ->
          let tester vector =
            let p1 = Pattern.of_list ~npis:(Netlist.num_pis net) [ vector ] in
            let obs = Injection.observed_responses net p1 defects in
            Array.init (Netlist.num_pos net) (fun oi -> Bitvec.get obs.(oi) 0)
          in
          let quality p d =
            let r = Noassume.diagnose_session (Session.create net p) d in
            (Metrics.evaluate net ~injected:defects ~callouts:(Noassume.callout_nets r))
              .Metrics.diagnosability
          in
          q_before := quality pats dlog :: !q_before;
          let progress = Distinguish.sharpen net pats dlog ~tester ~rng in
          before_counts := float_of_int progress.Distinguish.solutions_before :: !before_counts;
          after_counts := float_of_int progress.Distinguish.solutions_after :: !after_counts;
          added := float_of_int progress.Distinguish.added :: !added;
          q_after := quality progress.Distinguish.patterns progress.Distinguish.dlog :: !q_after
      done;
      add_row t
        [
          name;
          cell_float (Stats.mean !before_counts);
          cell_float (Stats.mean !after_counts);
          cell_float (Stats.mean !added);
          cell_pct (Stats.mean !q_before);
          cell_pct (Stats.mean !q_after);
        ])
    (campaign_circuits ());
  t

let table11 ~trials ~seed =
  let open Table in
  let t =
    create
      ~title:
        "Table 11: non-scan sequential diagnosis via time-frame expansion (random stuck sites)"
      [
        ("design", Left); ("frames", Right); ("unrolled gates", Right);
        ("diagnosability", Right); ("resolution", Right);
      ]
  in
  List.iter
    (fun (name, design, frames) ->
      let core = Scan_design.core design in
      let u = Unroll.make design ~frames in
      let net = Unroll.netlist u in
      let rng = Rng.create (cell_seed seed (name ^ "unroll") frames) in
      let sites =
        Array.of_list
          (List.filter
             (fun n -> not (Netlist.is_pi core n))
             (List.init (Netlist.num_nets core) Fun.id))
      in
      let qs = ref [] in
      for _ = 1 to trials do
        let rec draw attempts =
          if attempts = 0 then None
          else begin
            let site = Rng.pick rng sites in
            let stuck = Rng.bool rng in
            let overlay = Unroll.inject_stuck u site stuck in
            let pats =
              Pattern.of_list ~npis:(Netlist.num_pis net)
                (List.init 48 (fun _ ->
                     Array.init (Netlist.num_pis net) (fun _ -> Rng.bool rng)))
            in
            let expected = Logic_sim.responses net pats in
            let observed = Logic_sim.responses_overlay net pats overlay in
            let dlog = Datalog.of_responses ~expected ~observed in
            if Datalog.num_failing dlog = 0 then draw (attempts - 1)
            else Some (site, stuck, pats, dlog)
          end
        in
        match draw 50 with
        | None -> ()
        | Some (site, stuck, pats, dlog) ->
          let r = Noassume.diagnose_session (Session.create net pats) dlog in
          let collapsed = Unroll.collapse_callouts u (Noassume.callout_nets r) in
          qs :=
            Metrics.evaluate core
              ~injected:[ Defect.Stuck (site, stuck) ]
              ~callouts:collapsed
            :: !qs
      done;
      let diag, _, resolution = Metrics.aggregate !qs in
      add_row t
        [
          name; cell_int frames;
          cell_int (Netlist.num_gates net);
          cell_pct diag; cell_float resolution;
        ])
    [
      ("acc8", Seq_generators.accumulator 8, 6);
      ("lfsr16", Seq_generators.lfsr 16, 8);
      ("pipe8", Seq_generators.pipelined_adder 8, 4);
    ];
  t

let fig5 ~trials ~seed =
  let open Table in
  let t =
    create
      ~title:
        "Figure 5: diagnosing through an XOR space compactor (k=2, aggregate over circuits)"
      [
        ("outputs per pin", Left); ("diagnosability", Right); ("success", Right);
        ("resolution", Right); ("bar", Left);
      ]
  in
  let variants =
    [ ("no compaction", None); ("2:1", Some 2); ("4:1", Some 4); ("8:1", Some 8) ]
  in
  List.iter
    (fun (label, arity) ->
      let qs =
        List.concat_map
          (fun (name, net) ->
            (* Compaction only means something with several outputs. *)
            if Netlist.num_pos net < 4 then []
            else
              let target =
                match arity with
                | None -> net
                | Some a -> fst (Compactor.wrap net ~arity:a)
              in
              let c =
                Campaign.run ~methods:Campaign.only_noassume ~name:(name ^ label) target
                  ~multiplicity:2 ~trials ~seed:(cell_seed seed (name ^ label) 2)
              in
              Campaign.qualities c (fun o -> o.Campaign.noassume))
          (campaign_circuits ())
      in
      let diag, success, resolution = Metrics.aggregate qs in
      add_row t
        [ label; cell_pct diag; cell_pct success; cell_float resolution; bar 30 diag ])
    variants;
  t

let table8 ~trials ~seed =
  let open Table in
  let t =
    create
      ~title:
        "Table 8: transition-delay defects under launch-on-capture pairs (slow nets)"
      [
        ("circuit", Left); ("k", Right); ("fail pairs", Right);
        ("diagnosability", Right); ("success", Right); ("resolution", Right);
      ]
  in
  List.iter
    (fun (name, net) ->
      List.iter
        (fun k ->
          let pats = Campaign.test_set net in
          let launch, capture = Delay.loc_pairs pats in
          let session = Session.create net capture in
          let expected = Logic_sim.responses net capture in
          let rng = Rng.create (cell_seed seed (name ^ "delay") k) in
          let qs = ref [] in
          let fails = ref [] in
          for _ = 1 to trials do
            let rec draw attempts =
              if attempts = 0 then None
              else begin
                (* Distinct slow sites. *)
                let rec sites acc n guard =
                  if n = 0 || guard = 0 then acc
                  else
                    let d = Delay.random rng net in
                    if List.exists (fun d' -> Delay.site d' = Delay.site d) acc then
                      sites acc n (guard - 1)
                    else sites (d :: acc) (n - 1) guard
                in
                let defects = sites [] k 500 in
                if List.length defects < k then None
                else begin
                  let observed = Delay.observed_responses net ~launch ~capture defects in
                  let dlog = Datalog.of_responses ~expected ~observed in
                  if Datalog.num_failing dlog = 0 then draw (attempts - 1)
                  else Some (defects, dlog)
                end
              end
            in
            match draw 50 with
            | None -> ()
            | Some (defects, dlog) ->
              fails := float_of_int (Datalog.num_failing dlog) :: !fails;
              let r = Noassume.diagnose_session session dlog in
              (* Score against the contributing slow sites, reusing the
                 stuck-defect hit semantics (site or equivalent). *)
              let defects = Delay.contributing net ~launch ~capture defects in
              let injected = List.map (fun d -> Defect.Stuck (Delay.site d, true)) defects in
              qs :=
                Metrics.evaluate net ~injected ~callouts:(Noassume.callout_nets r)
                :: !qs
          done;
          let diag, success, resolution = Metrics.aggregate !qs in
          add_row t
            [
              name; cell_int k;
              cell_float (Stats.mean !fails);
              cell_pct diag; cell_pct success; cell_float resolution;
            ])
        [ 1; 2 ];
      add_rule t)
    (campaign_circuits ());
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
            let report = Tpg.generate_ndetect ~seed:1 ~backtrack_limit:128 ~n:ndetect net in
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
        add_rule t
      end)
    (campaign_circuits ());
  t

let ablation_exact ~trials ~seed =
  let open Table in
  let t =
    create
      ~title:
        "Ablation: greedy covering vs exact minimum cover (branch and bound reference)"
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
            let rec draw attempts =
              if attempts = 0 then None
              else
                let defects = Injection.random_defects rng net Injection.default_mix k in
                let observed = Injection.observed_responses net pats defects in
                let dlog = Datalog.of_responses ~expected ~observed in
                if Datalog.num_failing dlog = 0 then draw (attempts - 1) else Some dlog
            in
            match draw 50 with
            | None -> ()
            | Some dlog ->
              let m = Explain.build_session session dlog in
              let greedy =
                Noassume.diagnose_matrix
                  ~config:{ Noassume.default_config with validate = false }
                  m
              in
              let exact = Exact_cover.solve m in
              if not exact.Exact_cover.complete then incr incomplete
              else begin
                incr total;
                greedy_sizes :=
                  float_of_int (List.length greedy.Noassume.multiplet) :: !greedy_sizes;
                (match exact.Exact_cover.minimum with
                | Some minimum ->
                  exact_sizes := float_of_int minimum :: !exact_sizes;
                  if List.length greedy.Noassume.multiplet = minimum then incr minimal
                | None -> ());
                node_counts := float_of_int exact.Exact_cover.nodes :: !node_counts
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

(* A hand-built 2-gate circuit: z = AND(a, NOT(b)). *)
let tiny () =
  let b = Builder.create () in
  let a = Builder.input b "a" in
  let bb = Builder.input b "b" in
  let nb = Builder.not_ b ~name:"nb" bb in
  let z = Builder.and_ b ~name:"z" [ a; nb ] in
  Builder.mark_output b z;
  (Builder.finalize b, a, bb, nb, z)

let test_roles () =
  let net, a, bb, nb, z = tiny () in
  Alcotest.(check int) "nets" 4 (Netlist.num_nets net);
  Alcotest.(check int) "gates" 2 (Netlist.num_gates net);
  Alcotest.(check int) "pis" 2 (Netlist.num_pis net);
  Alcotest.(check int) "pos" 1 (Netlist.num_pos net);
  Alcotest.(check bool) "a is pi" true (Netlist.is_pi net a);
  Alcotest.(check bool) "nb not pi" false (Netlist.is_pi net nb);
  Alcotest.(check bool) "z is po" true (Netlist.is_po net z);
  Alcotest.(check bool) "b not po" false (Netlist.is_po net bb);
  Alcotest.(check (option int)) "po index" (Some 0) (Array.find_index (( = ) z) (Netlist.pos net))

let test_structure () =
  let net, a, bb, nb, z = tiny () in
  Alcotest.(check (array int)) "fanin z" [| a; nb |] (Netlist.fanin net z);
  Alcotest.(check (array int)) "fanout a" [| z |] (Reference.fanout net a);
  Alcotest.(check (array int)) "fanout b" [| nb |] (Reference.fanout net bb);
  Alcotest.(check int) "level a" 0 (Netlist.level net a);
  Alcotest.(check int) "level nb" 1 (Netlist.level net nb);
  Alcotest.(check int) "level z" 2 (Netlist.level net z);
  Alcotest.(check int) "depth" 2 (Netlist.depth net)

let test_topo_order () =
  let net, _, _, _, _ = tiny () in
  let topo = Netlist.topo_order net in
  Alcotest.(check int) "covers all" (Netlist.num_nets net) (Array.length topo);
  (* Every net appears after all of its fanins. *)
  let position = Array.make (Netlist.num_nets net) (-1) in
  Array.iteri (fun i n -> position.(n) <- i) topo;
  Netlist.iter_nets net (fun n ->
      Array.iter
        (fun src ->
          Alcotest.(check bool) "fanin before" true (position.(src) < position.(n)))
        (Netlist.fanin net n))

let test_find () =
  let net, a, _, _, _ = tiny () in
  Alcotest.(check (option int)) "find a" (Some a) (Netlist.find net "a");
  Alcotest.(check (option int)) "find missing" None (Netlist.find net "nope")

let test_cycle_detection () =
  (* z = AND(a, z) is a combinational cycle; Netlist.make must reject. *)
  Alcotest.check_raises "cycle"
    (Invalid_argument "Netlist.make: combinational cycle through net \"z\"")
    (fun () ->
      ignore
        (Netlist.make
           ~names:[| "a"; "z" |]
           ~kinds:[| Gate.Input; Gate.And |]
           ~fanins:[| [||]; [| 0; 1 |] |]
           ~pos:[| 1 |]))

let test_dangling_fanin () =
  Alcotest.check_raises "dangling"
    (Invalid_argument "Netlist.make: net \"z\": dangling fanin") (fun () ->
      ignore
        (Netlist.make
           ~names:[| "a"; "z" |]
           ~kinds:[| Gate.Input; Gate.Buf |]
           ~fanins:[| [||]; [| 9 |] |]
           ~pos:[||]))

let test_arity_violation () =
  Alcotest.check_raises "arity"
    (Invalid_argument "Netlist.make: net \"z\": AND with 1 fanins") (fun () ->
      ignore
        (Netlist.make
           ~names:[| "a"; "z" |]
           ~kinds:[| Gate.Input; Gate.And |]
           ~fanins:[| [||]; [| 0 |] |]
           ~pos:[||]))

let test_duplicate_name () =
  Alcotest.check_raises "dup" (Invalid_argument "Netlist.make: duplicate net name \"a\"")
    (fun () ->
      ignore
        (Netlist.make
           ~names:[| "a"; "a" |]
           ~kinds:[| Gate.Input; Gate.Buf |]
           ~fanins:[| [||]; [| 0 |] |]
           ~pos:[||]))

let test_duplicate_output () =
  Alcotest.check_raises "dup output"
    (Invalid_argument "Netlist.make: net \"a\" listed twice as output") (fun () ->
      ignore
        (Netlist.make ~names:[| "a" |] ~kinds:[| Gate.Input |] ~fanins:[| [||] |]
           ~pos:[| 0; 0 |]))

let test_cones_c17 () =
  let net = Generators.c17 () in
  let g22 = Option.get (Netlist.find net "G22") in
  (* Fanin cone of G22 contains G1, G10, G16, G11, G2, G3, G6, but not G7
     or G19 or G23. *)
  let cone = Reference.fanin_cone net g22 in
  List.iter
    (fun name ->
      let n = Option.get (Netlist.find net name) in
      Alcotest.(check bool) (name ^ " in cone") true cone.(n))
    [ "G1"; "G2"; "G3"; "G6"; "G10"; "G16"; "G11"; "G22" ];
  List.iter
    (fun name ->
      let n = Option.get (Netlist.find net name) in
      Alcotest.(check bool) (name ^ " out of cone") false cone.(n))
    [ "G7"; "G19"; "G23" ]

let test_fanout_reach_includes_self () =
  let net, a, _, _, z = tiny () in
  let reach = Netlist.fanout_reach net a in
  Alcotest.(check bool) "self" true reach.(a);
  Alcotest.(check bool) "z reachable" true reach.(z)

(* The adjacency and the cones against the [~fanins] given to [make],
   on random circuits, both as made and as decoded from their image
   section.  Each gate's fanins are reversed from the generator's order
   so that [fanin] must keep the order it was given. *)
let qcheck_adjacency_matches_fanins =
  QCheck.Test.make ~count:40
    ~name:"fanin/fanout/cones = the make input (random, made and decoded)"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let g =
        Generators.random_logic ~gates:(20 + (seed mod 100)) ~pis:(3 + (seed mod 6))
          ~pos:(1 + (seed mod 5)) ~seed
      in
      let n = Netlist.num_nets g in
      let fanins =
        Array.init n (fun i ->
            Array.of_list (List.rev (Array.to_list (Netlist.fanin g i))))
      in
      let made =
        Netlist.make
          ~names:(Array.init n (Netlist.name g))
          ~kinds:(Array.init n (Netlist.kind g))
          ~fanins ~pos:(Netlist.pos g)
      in
      let buf = Buffer.create 4096 in
      Netlist.encode buf made;
      let b = Buffer.to_bytes buf in
      let decoded =
        Option.get (Netlist.decode (Bigstring.of_bytes b) ~off:0 ~len:(Bytes.length b))
      in
      let readers = Array.make n [] in
      for dst = n - 1 downto 0 do
        Array.iter (fun src -> readers.(src) <- dst :: readers.(src)) fanins.(dst)
      done;
      let dfs next root =
        let seen = Array.make n false in
        let rec visit v =
          if not seen.(v) then begin
            seen.(v) <- true;
            List.iter visit (next v)
          end
        in
        visit root;
        seen
      in
      List.for_all
        (fun net ->
          List.for_all
            (fun v ->
              Netlist.fanin net v = fanins.(v)
              && Array.to_list (Reference.fanout net v) = readers.(v)
              && Reference.fanin_cone net v = dfs (fun u -> Array.to_list fanins.(u)) v
              && Netlist.fanout_reach net v = dfs (fun u -> readers.(u)) v)
            (List.init n Fun.id))
        [ made; decoded ])

let test_pp_stats () =
  let net, _, _, _, _ = tiny () in
  Alcotest.(check string) "stats" "2 PI, 1 PO, 2 gates, 4 nets, depth 2"
    (Format.asprintf "%a" Netlist.pp_stats net)

let suite =
  [
    ( "netlist",
      [
        Alcotest.test_case "roles" `Quick test_roles;
        Alcotest.test_case "structure" `Quick test_structure;
        Alcotest.test_case "topo order" `Quick test_topo_order;
        Alcotest.test_case "find" `Quick test_find;
        Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
        Alcotest.test_case "dangling fanin" `Quick test_dangling_fanin;
        Alcotest.test_case "arity violation" `Quick test_arity_violation;
        Alcotest.test_case "duplicate name" `Quick test_duplicate_name;
        Alcotest.test_case "duplicate output" `Quick test_duplicate_output;
        Alcotest.test_case "c17 cones" `Quick test_cones_c17;
        Alcotest.test_case "fanout reach includes self" `Quick test_fanout_reach_includes_self;
        Alcotest.test_case "pp stats" `Quick test_pp_stats;
        QCheck_alcotest.to_alcotest qcheck_adjacency_matches_fanins;
      ] );
  ]

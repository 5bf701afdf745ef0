(* The domain pool itself (chunking, ordering, nesting, failure
   propagation) and the determinism guarantee of the parallel diagnosis
   kernels: every domain count must produce bit-identical results. *)

let sizes = [ 0; 1; 2; 3; 4; 5; 7; 8; 9; 62; 63; 64; 65; 100 ]
let domain_counts = [ 1; 2; 3; 4; 8 ]

let test_map_array_matches_sequential () =
  List.iter
    (fun n ->
      let a = Array.init n (fun i -> i) in
      let expect = Array.map (fun x -> (x * x) + 1) a in
      List.iter
        (fun d ->
          Alcotest.(check (array int))
            (Printf.sprintf "n=%d domains=%d" n d)
            expect
            (Parallel.map_array ~domains:d (fun x -> (x * x) + 1) a))
        domain_counts)
    sizes

let test_mapi_array_passes_indices () =
  let a = Array.make 40 7 in
  let expect = Array.mapi (fun i x -> (10 * i) + x) a in
  List.iter
    (fun d ->
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d" d)
        expect
        (Parallel.mapi_array ~domains:d (fun i x -> (10 * i) + x) a))
    domain_counts

let test_parallel_for_covers_each_index_once () =
  List.iter
    (fun n ->
      List.iter
        (fun d ->
          let hits = Array.make (max n 1) 0 in
          Parallel.parallel_for ~domains:d n (fun lo hi ->
              for i = lo to hi - 1 do
                hits.(i) <- hits.(i) + 1
              done);
          Alcotest.(check bool)
            (Printf.sprintf "n=%d domains=%d" n d)
            true
            (Array.for_all (fun h -> h = if n = 0 then 0 else 1) (Array.sub hits 0 (max n 1))
            && (n = 0 || Array.for_all (fun h -> h = 1) (Array.sub hits 0 n))))
        domain_counts)
    sizes

let test_map_reduce_ordered () =
  (* String concatenation is associative but not commutative: an
     out-of-order chunk reduction changes the answer. *)
  let a = Array.init 37 (fun i -> string_of_int i ^ ";") in
  let expect = Array.fold_left ( ^ ) "" a in
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "domains=%d" d)
        expect
        (Parallel.map_reduce ~domains:d ~map:Fun.id ~reduce:( ^ ) ~init:"" a))
    domain_counts

let test_map_reduce_sum_and_empty () =
  List.iter
    (fun n ->
      let a = Array.init n (fun i -> i) in
      let expect = n * (n - 1) / 2 in
      List.iter
        (fun d ->
          Alcotest.(check int)
            (Printf.sprintf "n=%d domains=%d" n d)
            expect
            (Parallel.map_reduce ~domains:d ~map:Fun.id ~reduce:( + ) ~init:0 a))
        domain_counts)
    sizes

let test_nested_calls () =
  (* A parallel call inside a parallel call must complete and stay
     correct (inner calls fall back to inline execution on workers). *)
  let expect i =
    Array.fold_left ( + ) 0 (Array.init (i + 5) (fun j -> i * j))
  in
  let got =
    Parallel.map_array ~domains:4
      (fun i ->
        Parallel.map_reduce ~domains:4 ~map:Fun.id ~reduce:( + ) ~init:0
          (Array.init (i + 5) (fun j -> i * j)))
      (Array.init 9 Fun.id)
  in
  Alcotest.(check (array int)) "nested" (Array.init 9 expect) got

let test_chunk_failure_propagates () =
  Alcotest.check_raises "worker exception reaches the caller" Exit (fun () ->
      Parallel.parallel_for ~domains:4 100 (fun lo _ -> if lo > 0 then raise Exit));
  (* The pool must survive a failed batch. *)
  Alcotest.(check int) "pool alive after failure" 10
    (Parallel.map_reduce ~domains:4 ~map:Fun.id ~reduce:( + ) ~init:0
       (Array.init 5 Fun.id))

let test_set_domains () =
  let orig = Parallel.default_domains () in
  Parallel.set_domains 5;
  Alcotest.(check int) "override" 5 (Parallel.default_domains ());
  Parallel.set_domains 0;
  Alcotest.(check int) "clamped to 1" 1 (Parallel.default_domains ());
  Parallel.set_domains orig;
  Alcotest.(check int) "restored" orig (Parallel.default_domains ())

(* --- Determinism of the parallel diagnosis kernels ------------------ *)

let random_problem seed multiplicity =
  let gates = 30 + (seed mod 120) in
  let net = Generators.random_logic ~gates ~pis:6 ~pos:4 ~seed in
  let rng = Rng.create (seed * 13) in
  let pats = Pattern.random rng ~npis:6 ~count:70 in
  let expected = Logic_sim.responses net pats in
  let k = min multiplicity (max 1 (Injection.capacity net / 4)) in
  let defects = Injection.random_defects rng net Injection.default_mix k in
  let observed = Injection.observed_responses net pats defects in
  let dlog = Datalog.of_responses ~expected ~observed in
  (net, pats, dlog)

let matrices_identical m1 m2 =
  let c1 = Explain.candidates m1 and c2 = Explain.candidates m2 in
  let nfp1 = Array.length (Explain.failing m1) in
  c1 = c2
  && Explain.failing m1 = Explain.failing m2
  && Explain.observations m1 = Explain.observations m2
  && Array.for_all
       (fun c ->
         Bitvec.equal (Explain.covers m1 c) (Explain.covers m2 c)
         && Explain.mispredict_pass m1 c = Explain.mispredict_pass m2 c
         && Explain.mispredict_fail m1 c = Explain.mispredict_fail m2 c
         &&
         let ok = ref true in
         for fp = 0 to nfp1 - 1 do
           if
             Explain.matched m1 c fp <> Explain.matched m2 c fp
             || Explain.spurious m1 c fp <> Explain.spurious m2 c fp
           then ok := false
         done;
         !ok)
       (Array.init (Array.length c1) Fun.id)

let prop_matrix_identical_across_domains =
  QCheck.Test.make ~name:"Explain.build: domains=1 = domains=4 (bit-identical)"
    ~count:15
    QCheck.(pair (int_range 1 100_000) (int_range 1 4))
    (fun (seed, multiplicity) ->
      let net, pats, dlog = random_problem seed multiplicity in
      let build d =
        let config = { Session.default_config with Session.domains = Some d } in
        Explain.build_session (Session.create ~config net pats) dlog
      in
      matrices_identical (build 1) (build 4))

let prop_diagnosis_identical_across_domains =
  QCheck.Test.make ~name:"Noassume.diagnose: domains=1 = domains=4 (end to end)"
    ~count:10
    QCheck.(pair (int_range 1 100_000) (int_range 1 4))
    (fun (seed, multiplicity) ->
      let net, pats, dlog = random_problem seed multiplicity in
      if Datalog.num_failing dlog = 0 then true
      else begin
        let diagnose d =
          Noassume.diagnose_session
            (Session.create ~config:{ Session.default_config with Session.domains = Some d } net pats)
            dlog
        in
        let r1 = diagnose 1 and r4 = diagnose 4 in
        r1.Noassume.multiplet = r4.Noassume.multiplet
        && r1.Noassume.score = r4.Noassume.score
        && Noassume.callout_nets r1 = Noassume.callout_nets r4
        && r1.Noassume.refinement_steps = r4.Noassume.refinement_steps
      end)

let suite =
  [
    ( "parallel",
      [
        Alcotest.test_case "map_array = sequential map" `Quick
          test_map_array_matches_sequential;
        Alcotest.test_case "mapi_array indices" `Quick test_mapi_array_passes_indices;
        Alcotest.test_case "parallel_for covers exactly once" `Quick
          test_parallel_for_covers_each_index_once;
        Alcotest.test_case "map_reduce ordered" `Quick test_map_reduce_ordered;
        Alcotest.test_case "map_reduce sum + empty" `Quick test_map_reduce_sum_and_empty;
        Alcotest.test_case "nested calls" `Quick test_nested_calls;
        Alcotest.test_case "chunk failure propagates" `Quick test_chunk_failure_propagates;
        Alcotest.test_case "set_domains" `Quick test_set_domains;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [
            prop_matrix_identical_across_domains;
            prop_diagnosis_identical_across_domains;
          ] );
  ]

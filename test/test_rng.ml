let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a (1 lsl 60)) (Rng.int b (1 lsl 60))
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.int a (1 lsl 60) <> Rng.int b (1 lsl 60) then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_int_power_of_two () =
  let rng = Rng.create 7 in
  for _ = 1 to 1_000 do
    let v = Rng.int rng 64 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 64)
  done

let test_int_covers_range () =
  let rng = Rng.create 11 in
  let seen = Array.make 5 false in
  for _ = 1 to 1_000 do
    seen.(Rng.int rng 5) <- true
  done;
  Alcotest.(check bool) "all values reached" true (Array.for_all Fun.id seen)

let test_split_independence () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  (* Child and parent streams should not be identical. *)
  let same = ref true in
  for _ = 1 to 20 do
    if Rng.int parent (1 lsl 60) <> Rng.int child (1 lsl 60) then same := false
  done;
  Alcotest.(check bool) "streams differ" false !same

let test_split_deterministic () =
  let mk () =
    let parent = Rng.create 5 in
    let child = Rng.split parent in
    (Rng.int parent (1 lsl 60), Rng.int child (1 lsl 60))
  in
  Alcotest.(check bool) "split is reproducible" true (mk () = mk ())

let test_chance_rate () =
  let rng = Rng.create 17 in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.chance rng 0.3 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (abs_float (frac -. 0.3) < 0.02)

let test_bool_balance () =
  let rng = Rng.create 19 in
  let n = 20_000 in
  let trues = ref 0 in
  for _ = 1 to n do
    if Rng.bool rng then incr trues
  done;
  let frac = float_of_int !trues /. float_of_int n in
  Alcotest.(check bool) "balanced" true (abs_float (frac -. 0.5) < 0.02)

let test_chance_extremes () =
  let rng = Rng.create 23 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.chance rng 0.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always" true (Rng.chance rng 1.0)
  done

let test_pick_in_array () =
  let rng = Rng.create 31 in
  let a = [| 3; 1; 4; 1; 5 |] in
  for _ = 1 to 100 do
    let v = Rng.pick rng a in
    Alcotest.(check bool) "member" true (Array.exists (fun x -> x = v) a)
  done

let qcheck_int_uniformish =
  QCheck.Test.make ~name:"rng int never out of bounds" ~count:1000
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let suite =
  [
    ( "rng",
      [
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
        Alcotest.test_case "int bounds" `Quick test_int_bounds;
        Alcotest.test_case "int power of two" `Quick test_int_power_of_two;
        Alcotest.test_case "int covers range" `Quick test_int_covers_range;
        Alcotest.test_case "split independence" `Quick test_split_independence;
        Alcotest.test_case "split deterministic" `Quick test_split_deterministic;
        Alcotest.test_case "chance rate" `Quick test_chance_rate;
        Alcotest.test_case "bool balance" `Quick test_bool_balance;
        Alcotest.test_case "chance extremes" `Quick test_chance_extremes;
        Alcotest.test_case "pick in array" `Quick test_pick_in_array;
        QCheck_alcotest.to_alcotest qcheck_int_uniformish;
      ] );
  ]

let feq ?(eps = 1e-9) a b = abs_float (a -. b) < eps

let check_f name expected actual =
  Alcotest.(check bool) name true (feq expected actual)

let test_mean () =
  check_f "empty" 0.0 (Stats.mean []);
  check_f "single" 5.0 (Stats.mean [ 5.0 ]);
  check_f "several" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ])

let test_histogram () =
  let h = Stats.histogram ~bins:4 ~lo:0.0 ~hi:4.0 [ 0.5; 1.5; 1.7; 3.9; -1.0; 10.0 ] in
  Alcotest.(check (array int)) "bins" [| 2; 2; 0; 2 |] h

let test_ratio () =
  check_f "normal" 0.5 (Stats.ratio 1 2);
  check_f "zero denominator" 0.0 (Stats.ratio 5 0)

let qcheck_mean_bounds =
  QCheck.Test.make ~name:"mean within min/max" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-100.) 100.))
    (fun xs ->
      let m = Stats.mean xs in
      let lo = List.fold_left min (List.hd xs) xs and hi = List.fold_left max (List.hd xs) xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

let qcheck_histogram_total =
  QCheck.Test.make ~name:"histogram conserves count" ~count:300
    QCheck.(small_list (float_range (-10.) 10.))
    (fun xs ->
      let h = Stats.histogram ~bins:5 ~lo:(-5.0) ~hi:5.0 xs in
      Array.fold_left ( + ) 0 h = List.length xs)

let suite =
  [
    ( "stats",
      [
        Alcotest.test_case "mean" `Quick test_mean;
        Alcotest.test_case "histogram" `Quick test_histogram;
        Alcotest.test_case "ratio" `Quick test_ratio;
        QCheck_alcotest.to_alcotest qcheck_mean_bounds;
        QCheck_alcotest.to_alcotest qcheck_histogram_total;
      ] );
  ]

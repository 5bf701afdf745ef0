type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = bits64 t in
  { state = mix64 s }

(* Non-negative 62-bit int from the top bits, which are the best mixed. *)
let bits t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  assert (bound > 0);
  (* Rejection sampling to avoid modulo bias: accept [r] when the whole
     block of [bound] values holding it, [r - v .. r - v + bound - 1],
     lies inside [bits]' range [0, max_int]. *)
  let rec draw () =
    let r = bits t in
    let v = r mod bound in
    if r - v > max_int - (bound - 1) then draw () else v
  in
  if bound land (bound - 1) = 0 then bits t land (bound - 1) else draw ()

let bool t = Int64.compare (bits64 t) 0L < 0

let chance t p =
  (* 53 random bits over 2^53: a uniform double in [0,1). *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int r *. (1.0 /. 9007199254740992.0) < p

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

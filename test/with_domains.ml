(* [run d f] runs [f] at process width [d] ([Parallel.set_domains]) and
   restores the width it found when [f] returns or raises.  The kernels
   read the process width when they run, not when a session is created,
   so a case wraps every call whose width it means to fix. *)

let run d f =
  let orig = Parallel.default_domains () in
  Parallel.set_domains d;
  Fun.protect ~finally:(fun () -> Parallel.set_domains orig) f

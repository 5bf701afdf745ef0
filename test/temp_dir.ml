(* Temporary directories for test cases.  [with_dir f] makes a fresh,
   empty directory under the system temp dir, runs [f] on its path and
   removes the directory with everything in it when [f] returns or
   raises, so a failing case leaves nothing behind either.  A mapped
   design image inside it may be removed while mapped: the mapping
   stays valid until it is dropped. *)

let rec remove path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun name -> remove (Filename.concat path name)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_dir f =
  let dir = Filename.temp_dir "mdd" "" in
  Fun.protect ~finally:(fun () -> remove dir) (fun () -> f dir)

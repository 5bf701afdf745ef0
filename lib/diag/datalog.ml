type observation = { pattern : int; po : int }

type t = {
  npatterns : int;
  npos : int;
  entries : (int * int list) list; (* ascending pattern, ascending POs, non-empty *)
  by_pattern : (int, int list) Hashtbl.t;
}

(* [(pattern, failing PO positions)] pairs already checked: distinct
   in-range patterns, each with a non-empty list of in-range POs. *)
let of_entries ~npatterns ~npos entries =
  let entries =
    List.sort compare (List.map (fun (p, pos) -> (p, List.sort_uniq compare pos)) entries)
  in
  let by_pattern = Hashtbl.create (List.length entries) in
  List.iter (fun (p, pos) -> Hashtbl.add by_pattern p pos) entries;
  { npatterns; npos; entries; by_pattern }

let of_responses ~expected ~observed =
  let diffs = Logic_sim.diff_outputs expected observed in
  let npos = Array.length expected in
  let npatterns = if npos = 0 then 0 else Bitvec.length expected.(0) in
  of_entries ~npatterns ~npos diffs

let npatterns t = t.npatterns
let npos t = t.npos

let failing_patterns t = List.map fst t.entries
let num_failing t = List.length t.entries

let failing_pos t p = match Hashtbl.find_opt t.by_pattern p with Some l -> l | None -> []

(* Made with a static filler, then filled: [Array.of_list] would seed a
   long array with a young record and force a minor collection. *)
let no_observation = { pattern = 0; po = 0 }

let observations t =
  let n = List.fold_left (fun acc (_, pos) -> acc + List.length pos) 0 t.entries in
  let out = Array.make n no_observation in
  let i = ref 0 in
  List.iter
    (fun (p, pos) ->
      List.iter
        (fun o ->
          out.(!i) <- { pattern = p; po = o };
          incr i)
        pos)
    t.entries;
  out

type words = { fail : int array; obs : int array; total : int }

let observed_words t (blocks : Pattern.block array) =
  let nblocks = Array.length blocks in
  let fail = Array.make (max 1 nblocks) 0 in
  let obs = Array.make (max 1 (nblocks * t.npos)) 0 in
  let total = ref 0 in
  Array.iteri
    (fun bi (block : Pattern.block) ->
      for k = 0 to block.width - 1 do
        let pos = failing_pos t (block.base + k) in
        if pos <> [] then fail.(bi) <- fail.(bi) lor (1 lsl k);
        List.iter
          (fun oi ->
            obs.((bi * t.npos) + oi) <- obs.((bi * t.npos) + oi) lor (1 lsl k);
            incr total)
          pos
      done)
    blocks;
  { fail; obs; total = !total }

let to_text t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (p, pos) ->
      Printf.bprintf buf "fail %d :%s\n" p
        (String.concat "" (List.map (Printf.sprintf " %d") pos)))
    t.entries;
  Buffer.contents buf

(* Each entry is checked on its own line, and every error names it.  A
   number is plain decimal digits: [int_of_string] alone would also
   read [0x10], [0b11], [1_0] and [+3]. *)
let of_text ~npatterns ~npos text =
  let seen = Hashtbl.create 16 in
  let entries = ref [] in
  List.iteri
    (fun lineno line ->
      let error what =
        invalid_arg (Printf.sprintf "Datalog.of_text: %s on line %d" what (lineno + 1))
      in
      let number s =
        match int_of_string_opt s with
        | Some n when String.for_all (function '0' .. '9' -> true | _ -> false) s -> n
        | Some _ | None -> error "bad number"
      in
      let line = String.trim line in
      if line <> "" then
        match String.split_on_char ':' line with
        | [ head; tail ] -> (
          match String.split_on_char ' ' (String.trim head) with
          | [ "fail"; p ] ->
            let pos =
              String.split_on_char ' ' (String.trim tail)
              |> List.filter (fun s -> s <> "")
            in
            let p = number p and pos = List.map number pos in
            if p >= npatterns then error "pattern index out of range";
            if Hashtbl.mem seen p then error "duplicate pattern entry";
            Hashtbl.add seen p ();
            if pos = [] then error "empty failing-output list";
            if List.exists (fun o -> o >= npos) pos then error "PO position out of range";
            entries := (p, pos) :: !entries
          | _ -> error "bad header")
        | _ -> error "expected ':'")
    (String.split_on_char '\n' text);
  of_entries ~npatterns ~npos !entries

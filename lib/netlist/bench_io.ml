exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun msg -> raise (Parse_error (line, msg))) fmt

type stmt =
  | S_input of string
  | S_output of string
  | S_def of string * string * string list (* lhs, kind mnemonic, args *)

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '[' || c = ']' || c = '.' || c = '-'

let strip s =
  let n = String.length s in
  let i = ref 0 and j = ref (n - 1) in
  while !i < n && (s.[!i] = ' ' || s.[!i] = '\t' || s.[!i] = '\r') do incr i done;
  while !j >= !i && (s.[!j] = ' ' || s.[!j] = '\t' || s.[!j] = '\r') do decr j done;
  String.sub s !i (!j - !i + 1)

(* "KIND(a, b, c)" -> (KIND, [a; b; c]) *)
let parse_call line s =
  match String.index_opt s '(' with
  | None -> fail line "expected '(' in %S" s
  | Some lp ->
    if s.[String.length s - 1] <> ')' then fail line "expected ')' in %S" s;
    let mnemonic = strip (String.sub s 0 lp) in
    let inner = String.sub s (lp + 1) (String.length s - lp - 2) in
    let args =
      String.split_on_char ',' inner |> List.map strip
      |> List.filter (fun a -> a <> "")
    in
    List.iter
      (fun a ->
        String.iter
          (fun c -> if not (is_ident_char c) then fail line "bad identifier %S" a)
          a)
      args;
    (mnemonic, args)

let parse_line lineno raw =
  let s =
    match String.index_opt raw '#' with
    | Some i -> strip (String.sub raw 0 i)
    | None -> strip raw
  in
  if s = "" then None
  else
    match String.index_opt s '=' with
    | Some eq ->
      let lhs = strip (String.sub s 0 eq) in
      let rhs = strip (String.sub s (eq + 1) (String.length s - eq - 1)) in
      if lhs = "" then fail lineno "missing left-hand side";
      let mnemonic, args = parse_call lineno rhs in
      Some (S_def (lhs, mnemonic, args))
    | None ->
      let mnemonic, args = parse_call lineno s in
      (match (String.uppercase_ascii mnemonic, args) with
      | "INPUT", [ a ] -> Some (S_input a)
      | "OUTPUT", [ a ] -> Some (S_output a)
      | ("INPUT" | "OUTPUT"), _ -> fail lineno "INPUT/OUTPUT take one name"
      | _ -> fail lineno "unrecognised statement %S" s)

let parse_string text =
  let stmts = ref [] in
  List.iteri
    (fun i raw ->
      match parse_line (i + 1) raw with
      | Some s -> stmts := (i + 1, s) :: !stmts
      | None -> ())
    (String.split_on_char '\n' text);
  let stmts = List.rev !stmts in
  (* Pass 1: allocate dense ids for every defined net, in file order. *)
  let ids = Hashtbl.create 256 in
  let order = ref [] in
  let declare line name =
    if Hashtbl.mem ids name then fail line "net %S defined twice" name;
    Hashtbl.add ids name (Hashtbl.length ids);
    order := name :: !order
  in
  List.iter
    (fun (line, s) ->
      match s with
      | S_input name -> declare line name
      | S_def (name, _, _) -> declare line name
      | S_output _ -> ())
    stmts;
  let n = Hashtbl.length ids in
  let names = Array.of_list (List.rev !order) in
  let kinds = Array.make n Gate.Input in
  let fanins = Array.make n [||] in
  let outputs = ref [] in
  let lookup line name =
    match Hashtbl.find_opt ids name with
    | Some id -> id
    | None -> fail line "reference to undefined net %S" name
  in
  List.iter
    (fun (line, s) ->
      match s with
      | S_input _ -> ()
      | S_output name -> outputs := lookup line name :: !outputs
      | S_def (name, mnemonic, args) ->
        let id = lookup line name in
        (match Gate.of_name mnemonic with
        | None -> fail line "unknown gate kind %S" mnemonic
        | Some Gate.Input -> fail line "INPUT used as a gate"
        | Some kind ->
          if not (Gate.arity_ok kind (List.length args)) then
            fail line "%s with %d fanins" (Gate.name kind) (List.length args);
          kinds.(id) <- kind;
          fanins.(id) <- Array.of_list (List.map (lookup line) args)))
    stmts;
  try Netlist.make ~names ~kinds ~fanins ~pos:(Array.of_list (List.rev !outputs))
  with Invalid_argument msg -> raise (Parse_error (0, msg))

let source_key text = "bench " ^ Digest.to_hex (Digest.string text)

let to_string t =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "# %d inputs, %d outputs, %d gates\n" (Netlist.num_pis t)
    (Netlist.num_pos t) (Netlist.num_gates t);
  Array.iter (fun pi -> Printf.bprintf buf "INPUT(%s)\n" (Netlist.name t pi)) (Netlist.pis t);
  Array.iter (fun po -> Printf.bprintf buf "OUTPUT(%s)\n" (Netlist.name t po)) (Netlist.pos t);
  Array.iter
    (fun n ->
      match Netlist.kind t n with
      | Gate.Input -> ()
      | kind ->
        let args =
          Netlist.fanin t n |> Array.to_list
          |> List.map (Netlist.name t)
          |> String.concat ", "
        in
        Printf.bprintf buf "%s = %s(%s)\n" (Netlist.name t n) (Gate.name kind) args)
    (Netlist.topo_order t);
  Buffer.contents buf

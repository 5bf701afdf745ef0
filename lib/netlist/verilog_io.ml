exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun msg -> raise (Parse_error (line, msg))) fmt

(* ------------------------------------------------------------------ *)
(* Tokenizer                                                           *)

type token =
  | Ident of string
  | Punct of char (* ( ) , ; = *)
  | Literal of bool (* 1'b0 / 1'b1 *)

let tokenize text =
  let tokens = ref [] in
  let line = ref 1 in
  let n = String.length text in
  let i = ref 0 in
  let peek k = if !i + k < n then Some text.[!i + k] else None in
  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '$' in
  while !i < n do
    let c = text.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && peek 1 = Some '/' then begin
      while !i < n && text.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '/' && peek 1 = Some '*' then begin
      i := !i + 2;
      let closed = ref false in
      while (not !closed) && !i < n do
        if text.[!i] = '\n' then incr line;
        if text.[!i] = '*' && peek 1 = Some '/' then begin
          closed := true;
          i := !i + 2
        end
        else incr i
      done;
      if not !closed then fail !line "unterminated block comment"
    end
    else if c = '\\' then begin
      (* Escaped identifier: up to the next whitespace. *)
      let start = !i + 1 in
      let j = ref start in
      while !j < n && not (List.mem text.[!j] [ ' '; '\t'; '\n'; '\r' ]) do
        incr j
      done;
      if !j = start then fail !line "empty escaped identifier";
      tokens := (Ident (String.sub text start (!j - start)), !line) :: !tokens;
      i := !j
    end
    else if c = '1' && peek 1 = Some '\'' && (peek 2 = Some 'b' || peek 2 = Some 'B')
    then begin
      match peek 3 with
      | Some '0' ->
        tokens := (Literal false, !line) :: !tokens;
        i := !i + 4
      | Some '1' ->
        tokens := (Literal true, !line) :: !tokens;
        i := !i + 4
      | _ -> fail !line "bad literal (only 1'b0 / 1'b1 supported)"
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char text.[!i] do
        incr i
      done;
      tokens := (Ident (String.sub text start (!i - start)), !line) :: !tokens
    end
    else if List.mem c [ '('; ')'; ','; ';'; '=' ] then begin
      tokens := (Punct c, !line) :: !tokens;
      incr i
    end
    else fail !line "unexpected character %C" c
  done;
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)

type stmt =
  | S_decl of [ `Input | `Output | `Wire ] * string list
  | S_assign of string * bool
  | S_gate of Gate.kind * string list (* out :: ins *)

let primitive_of_name = function
  | "and" -> Some Gate.And
  | "nand" -> Some Gate.Nand
  | "or" -> Some Gate.Or
  | "nor" -> Some Gate.Nor
  | "xor" -> Some Gate.Xor
  | "xnor" -> Some Gate.Xnor
  | "not" -> Some Gate.Not
  | "buf" -> Some Gate.Buf
  | _ -> None

let parse_tokens tokens =
  let rest = ref tokens in
  let line () = match !rest with (_, l) :: _ -> l | [] -> 0 in
  let next () =
    match !rest with
    | t :: tl ->
      rest := tl;
      t
    | [] -> fail 0 "unexpected end of file"
  in
  let expect_punct c =
    match next () with
    | Punct p, _ when p = c -> ()
    | _, l -> fail l "expected %C" c
  in
  let expect_ident () =
    match next () with
    | Ident s, _ -> s
    | _, l -> fail l "expected identifier"
  in
  let expect_keyword kw =
    let l = line () in
    let s = expect_ident () in
    if s <> kw then fail l "expected %S" kw
  in
  (* Comma-separated identifiers terminated by [stop]. *)
  let ident_list stop =
    let rec go acc =
      let id = expect_ident () in
      match next () with
      | Punct ',', _ -> go (id :: acc)
      | Punct p, _ when p = stop -> List.rev (id :: acc)
      | _, l -> fail l "expected ',' or %C" stop
    in
    go []
  in
  expect_keyword "module";
  let _module_name = expect_ident () in
  expect_punct '(';
  let _ports = ident_list ')' in
  expect_punct ';';
  let stmts = ref [] in
  let finished = ref false in
  while not !finished do
    let l = line () in
    match next () with
    | Ident "endmodule", _ -> finished := true
    | Ident "input", _ -> stmts := (l, S_decl (`Input, ident_list ';')) :: !stmts
    | Ident "output", _ -> stmts := (l, S_decl (`Output, ident_list ';')) :: !stmts
    | Ident "wire", _ -> stmts := (l, S_decl (`Wire, ident_list ';')) :: !stmts
    | Ident "assign", _ ->
      let name = expect_ident () in
      expect_punct '=';
      let value =
        match next () with
        | Literal b, _ -> b
        | _, l2 -> fail l2 "assign supports only 1'b0 / 1'b1"
      in
      expect_punct ';';
      stmts := (l, S_assign (name, value)) :: !stmts
    | Ident prim, _ -> (
      match primitive_of_name prim with
      | None -> fail l "unsupported construct %S (structural subset only)" prim
      | Some kind ->
        (* Optional instance name before the port list. *)
        let () =
          match !rest with
          | (Ident _, _) :: (Punct '(', _) :: _ ->
            ignore (next ())
          | _ -> ()
        in
        expect_punct '(';
        let ports = ident_list ')' in
        expect_punct ';';
        if List.length ports < 2 then fail l "primitive needs an output and inputs";
        stmts := (l, S_gate (kind, ports)) :: !stmts)
    | _, l2 -> fail l2 "unexpected token"
  done;
  List.rev !stmts

let build stmts =
  (* Collect declarations and drivers, then assemble a Netlist. *)
  let order = ref [] in
  let ids = Hashtbl.create 64 in
  let declare name =
    if not (Hashtbl.mem ids name) then begin
      Hashtbl.add ids name (Hashtbl.length ids);
      order := name :: !order
    end
  in
  let inputs = Hashtbl.create 16 in
  let outputs = ref [] in
  List.iter
    (fun (line, s) ->
      match s with
      | S_decl (`Input, names) ->
        List.iter
          (fun nm ->
            if Hashtbl.mem inputs nm then fail line "net %S declared input twice" nm;
            Hashtbl.add inputs nm ();
            declare nm)
          names
      | S_decl (`Output, names) ->
        List.iter
          (fun nm ->
            declare nm;
            outputs := nm :: !outputs)
          names
      | S_decl (`Wire, names) -> List.iter declare names
      | S_assign (name, _) -> declare name
      | S_gate (_, ports) -> List.iter declare ports)
    stmts;
  let n = Hashtbl.length ids in
  let names = Array.of_list (List.rev !order) in
  let kinds = Array.make n Gate.Input in
  let fanins = Array.make n [||] in
  let driven = Array.make n false in
  Array.iteri (fun i nm -> if Hashtbl.mem inputs nm then driven.(i) <- true) names;
  let id line nm =
    match Hashtbl.find_opt ids nm with
    | Some i -> i
    | None -> fail line "undeclared net %S" nm
  in
  let drive line nm kind fanin =
    let i = id line nm in
    if driven.(i) then fail line "net %S driven twice" nm;
    driven.(i) <- true;
    kinds.(i) <- kind;
    fanins.(i) <- fanin
  in
  List.iter
    (fun (line, s) ->
      match s with
      | S_decl _ -> ()
      | S_assign (name, v) -> drive line name (Gate.Const v) [||]
      | S_gate (kind, out :: ins) ->
        let kind =
          (* Verilog's and/or/... are n-ary; with one input they act as
             buf/not is not standard, reject. *)
          match (kind, List.length ins) with
          | (Gate.Not | Gate.Buf), 1 -> kind
          | (Gate.Not | Gate.Buf), _ -> fail line "not/buf take exactly one input"
          | _, k when k >= 2 -> kind
          | _ -> fail line "n-ary primitive needs >= 2 inputs"
        in
        drive line out kind (Array.of_list (List.map (id line) ins))
      | S_gate (_, []) -> assert false)
    stmts;
  Array.iteri
    (fun i nm -> if not driven.(i) then fail 0 "net %S is never driven" nm)
    names;
  (* [outputs] was accumulated reversed; rev_map restores order. *)
  let pos = Array.of_list (List.rev_map (fun nm -> id 0 nm) !outputs) in
  try Netlist.make ~names ~kinds ~fanins ~pos
  with Invalid_argument msg -> raise (Parse_error (0, msg))

let parse_string text = build (parse_tokens (tokenize text))

let source_key text = "verilog " ^ Digest.to_hex (Digest.string text)

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

let is_plain_ident s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true | _ -> false)
       s
  && primitive_of_name s = None
  && not (List.mem s [ "module"; "endmodule"; "input"; "output"; "wire"; "assign" ])

let emit_name s = if is_plain_ident s then s else "\\" ^ s ^ " "

let to_string t =
  let buf = Buffer.create 4096 in
  let name n = emit_name (Netlist.name t n) in
  Array.iter
    (fun po ->
      if Netlist.is_pi t po then
        invalid_arg "Verilog_io.to_string: a primary input is also an output")
    (Netlist.pos t);
  let pis = Array.to_list (Array.map name (Netlist.pis t)) in
  let pos = Array.to_list (Array.map name (Netlist.pos t)) in
  Printf.bprintf buf "module top (%s);\n" (String.concat ", " (pis @ pos));
  if pis <> [] then Printf.bprintf buf "  input %s;\n" (String.concat ", " pis);
  if pos <> [] then Printf.bprintf buf "  output %s;\n" (String.concat ", " pos);
  let wires = ref [] in
  Netlist.iter_nets t (fun n ->
      if (not (Netlist.is_pi t n)) && not (Netlist.is_po t n) then
        wires := name n :: !wires);
  (match List.rev !wires with
  | [] -> ()
  | ws -> Printf.bprintf buf "  wire %s;\n" (String.concat ", " ws));
  Array.iter
    (fun n ->
      match Netlist.kind t n with
      | Gate.Input -> ()
      | Gate.Const b -> Printf.bprintf buf "  assign %s = 1'b%d;\n" (name n) (Bool.to_int b)
      | kind ->
        let ports =
          name n :: Array.to_list (Array.map name (Netlist.fanin t n))
        in
        Printf.bprintf buf "  %s g%d (%s);\n"
          (String.lowercase_ascii (Gate.name kind))
          n
          (String.concat ", " ports))
    (Netlist.topo_order t);
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf

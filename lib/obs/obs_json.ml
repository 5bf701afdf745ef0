type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Fail of int * string

(* Recursive-descent parser over a string with one mutable position.
   Exceptions carry the offset; [parse] converts them to [Error]. *)
type state = { text : string; mutable pos : int }

let fail st msg = raise (Fail (st.pos, msg))
let peek st = if st.pos < String.length st.text then Some st.text.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.text
    &&
    match st.text.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some x when x = c -> st.pos <- st.pos + 1
  | _ -> fail st (Printf.sprintf "expected %C" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.text && String.sub st.text st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st ("expected " ^ word)

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' ->
      st.pos <- st.pos + 1;
      (match peek st with
      | None -> fail st "unterminated escape"
      | Some c ->
        st.pos <- st.pos + 1;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if st.pos + 4 > String.length st.text then fail st "truncated \\u escape";
          let v = ref 0 in
          for i = 0 to 3 do
            let d = hex_digit st.text.[st.pos + i] in
            if d < 0 then fail st "bad \\u escape";
            v := (!v * 16) + d
          done;
          st.pos <- st.pos + 4;
          (* UTF-8 encode the code point; surrogate pairs are not
             recombined — the reports this reads never emit them. *)
          let u = !v in
          if u < 0x80 then Buffer.add_char buf (Char.chr u)
          else if u < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
          end
        | _ -> fail st "bad escape"));
      loop ()
    | Some c ->
      st.pos <- st.pos + 1;
      Buffer.add_char buf c;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while
    st.pos < String.length st.text && is_num_char st.text.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  let s = String.sub st.text start (st.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> fail st ("bad number " ^ s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let members = ref [] in
      let rec members_loop () =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        members := (key, v) :: !members;
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          members_loop ()
        | Some '}' -> st.pos <- st.pos + 1
        | _ -> fail st "expected ',' or '}'"
      in
      members_loop ();
      Obj (List.rev !members)
    end
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin
      st.pos <- st.pos + 1;
      List []
    end
    else begin
      let items = ref [] in
      let rec items_loop () =
        let v = parse_value st in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          items_loop ()
        | Some ']' -> st.pos <- st.pos + 1
        | _ -> fail st "expected ',' or ']'"
      in
      items_loop ();
      List (List.rev !items)
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let parse text =
  let st = { text; pos = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length text then fail st "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (pos, msg) -> Error (Printf.sprintf "JSON error at offset %d: %s" pos msg)

let parse_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

(* --- Accessors ------------------------------------------------------ *)

let member key = function Obj l -> List.assoc_opt key l | _ -> None
let num = function Num f -> Some f | _ -> None

let int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let str = function Str s -> Some s | _ -> None
let list = function List l -> Some l | _ -> None

(* --- Writer --------------------------------------------------------- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num f -> Buffer.add_string buf (number_to_string f)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ", ";
        write buf v)
      items;
    Buffer.add_char buf ']'
  | Obj members ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\": ";
        write buf v)
      members;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

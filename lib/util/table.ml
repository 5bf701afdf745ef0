type align = Left | Right | Center

type row = Cells of string list | Rule

type t = {
  title : string option;
  headers : string list;
  aligns : align array;
  mutable rows : row list; (* reversed *)
}

let create ?title columns =
  {
    title;
    headers = List.map fst columns;
    aligns = Array.of_list (List.map snd columns);
    rows = [];
  }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- Cells cells :: t.rows

let add_rule t = t.rows <- Rule :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let missing = width - n in
    match align with
    | Left -> s ^ String.make missing ' '
    | Right -> String.make missing ' ' ^ s
    | Center ->
      let l = missing / 2 in
      String.make l ' ' ^ s ^ String.make (missing - l) ' '

let render t =
  let rows = List.rev t.rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  let measure cells =
    List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) cells
  in
  measure t.headers;
  List.iter (function Cells c -> measure c | Rule -> ()) rows;
  let buf = Buffer.create 1024 in
  let rule ch =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) ch);
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let line ?(align_hdr = false) cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i c ->
        let a = if align_hdr then Center else t.aligns.(i) in
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad a widths.(i) c);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  (match t.title with
  | Some title ->
    Buffer.add_string buf title;
    Buffer.add_char buf '\n'
  | None -> ());
  rule '-';
  line ~align_hdr:true t.headers;
  rule '=';
  List.iter (function Cells c -> line c | Rule -> rule '-') rows;
  rule '-';
  Buffer.contents buf

let csv_cell s =
  let needs_quoting = String.exists (fun c -> c = ',' || c = '"' || c = '\n') s in
  if not needs_quoting then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let to_csv t =
  let buf = Buffer.create 1024 in
  let line cells =
    Buffer.add_string buf (String.concat "," (List.map csv_cell cells));
    Buffer.add_char buf '\n'
  in
  line t.headers;
  List.iter (function Cells c -> line c | Rule -> ()) (List.rev t.rows);
  Buffer.contents buf

let cell_int = string_of_int
let cell_float ?(decimals = 2) f = Printf.sprintf "%.*f" decimals f
let cell_pct ?(decimals = 1) f = Printf.sprintf "%.*f%%" decimals (100.0 *. f)

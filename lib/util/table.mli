(** ASCII table rendering for the benchmark harness.

    The bench executable regenerates each of the paper's tables as rows of
    strings; this module aligns and rules them the way the tables read in
    print. *)

type align = Left | Right | Center

type t

val create : ?title:string -> (string * align) list -> t
(** [create ~title columns] starts a table with the given header cells and
    per-column alignment. *)

val add_row : t -> string list -> unit
(** Append a data row; the row length must match the header. *)

val add_rule : t -> unit
(** Append a horizontal rule (used to group sections of a table). *)

val render : t -> string
(** Render the full table, including borders. *)

val to_csv : t -> string
(** Machine-readable form: header line then data rows, RFC-4180 quoting,
    rules omitted. *)

val cell_int : int -> string
val cell_float : ?decimals:int -> float -> string
val cell_pct : ?decimals:int -> float -> string
(** Format a [0,1] fraction as a percentage string, e.g. [cell_pct 0.975]
    = ["97.5%"]. *)

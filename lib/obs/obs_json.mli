(** A minimal JSON reader/writer — just enough for run reports,
    committed baselines and threshold files, so the observability layer
    stays dependency-free (no [yojson] in the build environment).

    Numbers are kept as [float]; every counter this repo emits fits a
    float exactly (< 2{^53}). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Strict parser for the JSON subset this repo writes: no comments, no
    trailing commas; [\u] escapes are decoded to UTF-8.  Errors carry a
    character offset.  Test-only: tools read files ({!parse_file}), and
    [test_obs] checks the reader and the run-report round trip on
    strings through this, the parser behind it. *)

val parse_file : string -> (t, string) result

(** {1 Accessors} — total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
val num : t -> float option
val int : t -> int option
val str : t -> string option
val list : t -> t list option

val escape : string -> string
(** JSON string-literal escaping (without the surrounding quotes). *)

val to_string : t -> string
(** Compact one-line rendering; object members keep their given order. *)

(** ISCAS-85 `.bench` format reader and writer.

    The format the benchmark suites of diagnosis papers ship in:

    {v
    # comment
    INPUT(G1)
    OUTPUT(G22)
    G10 = NAND(G1, G3)
    G22 = NOT(G10)
    v}

    Buffered primary outputs: a name may appear both as a gate output and
    in an [OUTPUT(...)] declaration; nets may be declared [OUTPUT] before
    they are defined. *)

exception Parse_error of int * string
(** Line number (1-based) and message. *)

val parse_string : string -> Netlist.t
(** Parse a whole `.bench` file held in a string. *)

val parse_file : string -> Netlist.t
(** Read and parse a file from disk; the netlist carries
    {!source_key} of the file's bytes as its {!Netlist.source}. *)

val source_key : string -> string
(** ["bench <hex>"], the MD5 of a file's bytes: the store key of the
    netlist parsed from them. *)

val to_string : Netlist.t -> string
(** Emit `.bench` text; [parse_string (to_string t)] is structurally
    identical to [t]. *)

val write_file : string -> Netlist.t -> unit

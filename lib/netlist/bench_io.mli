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

val source_key : string -> string
(** ["bench <hex>"], the MD5 of a file's bytes: the store key of the
    netlist parsed from them. *)

val to_string : Netlist.t -> string
(** Emit `.bench` text; [parse_string (to_string t)] is structurally
    identical to [t].  Test-only: the round-trip properties of
    [test_bench_io], [test_invariants] and [test_store_file] write
    through it; no tool writes a netlist. *)

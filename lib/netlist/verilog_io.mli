(** Structural Verilog netlist I/O (gate-primitive subset).

    The second interchange format next to {!Bench_io}: the flat,
    primitive-only structural Verilog that synthesis flows and academic
    tools exchange:

    {v
    module top (G1, G2, G22);
      input G1, G2;
      output G22;
      wire net1;
      nand g0 (net1, G1, G2);   // first port drives, rest are inputs
      not     (G22, net1);      // instance name optional
      assign net2 = 1'b0;       // tied cells
    endmodule
    v}

    Supported primitives: [and, nand, or, nor, xor, xnor, not, buf].
    Multi-name declarations ([input a, b;]) and escaped identifiers
    ([\name ]) are accepted.  Nets driven by an [assign] of [1'b0]/[1'b1]
    become constant cells.  Behavioural constructs are out of scope and
    rejected with a located error. *)

exception Parse_error of int * string
(** Line number (1-based) and message. *)

val parse_string : string -> Netlist.t

val parse_file : string -> Netlist.t
(** Read and parse a file; the netlist carries {!source_key} of the
    file's bytes as its {!Netlist.source}. *)

val source_key : string -> string
(** ["verilog <hex>"], the MD5 of a file's bytes. *)

val to_string : ?module_name:string -> Netlist.t -> string
(** Emit the subset above; [parse_string (to_string t)] is structurally
    identical to [t].  Net names that are not plain Verilog identifiers
    are emitted in escaped form. *)

val write_file : ?module_name:string -> string -> Netlist.t -> unit

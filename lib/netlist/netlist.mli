(** Combinational gate-level netlist.

    A netlist is a DAG of single-output gates.  Every net is driven by
    exactly one gate (or is a primary input); net and gate therefore share
    one integer id.  The structure is immutable after construction — build
    it with {!Builder} or parse it with {!Bench_io}.

    Sequential designs are assumed full-scan: flip-flop outputs are
    modelled as primary inputs and flip-flop inputs as primary outputs, so
    diagnosis and test generation see a purely combinational core (the
    standard reduction used by diagnosis papers). *)

type t

type net = int
(** Net id, dense in [0, num_nets). *)

(** {1 Construction (used by Builder/Bench_io)} *)

val make :
  names:string array ->
  kinds:Gate.kind array ->
  fanins:net array array ->
  pos:net array ->
  t
(** Validates and freezes a netlist: checks arities, dangling fanins,
    acyclicity (raises [Invalid_argument] with a diagnostic otherwise),
    then computes fanouts, levels and a topological order. *)

(** {1 Size and roles} *)

val num_nets : t -> int
val num_gates : t -> int
(** Number of non-[Input] nets. *)

val pis : t -> net array
(** Primary inputs, in declaration order. *)

val pos : t -> net array
(** Primary outputs (observed nets), in declaration order. *)

val num_pis : t -> int
val num_pos : t -> int

val is_pi : t -> net -> bool
val is_po : t -> net -> bool

val depth : t -> int
(** Maximum level over all nets (0 when the circuit is only wires). *)

(** {1 Structure} *)

val kind : t -> net -> Gate.kind
val fanin : t -> net -> net array
(** A fresh copy of the net's fanins, in the order given to {!make};
    code that reads the adjacency per gate reads {!fanin_csr}. *)


val level : t -> net -> int

val topo_order : t -> net array
(** All nets in topological order (fanins before fanouts); primary inputs
    come first. *)

val name : t -> net -> string
(** A fresh copy: the netlist keeps every name in one string. *)

val find : t -> string -> net option
(** Look a net up by name.  The name table is built on the first
    lookup, so a netlist that is never searched by name never pays for
    it. *)

(** {1 Flat views}

    The adjacency as flat CSR integer arrays and the gate kinds as one
    array, the netlist's one representation of its structure.  The
    fanins of net [n] are [fanin_csr.(i)] for [i] in
    [fanin_offsets.(n), fanin_offsets.(n+1)); likewise fanouts, each
    net's ascending.  The arrays are the netlist's own, frozen by
    contract — callers must not mutate them. *)

val fanin_csr : t -> int array
val fanin_offsets : t -> int array
(** Length [num_nets + 1]. *)

val fanout_csr : t -> int array
val fanout_offsets : t -> int array
(** Length [num_nets + 1]. *)

val kinds : t -> Gate.kind array
(** Every net's driver kind, indexed by net (same values as {!kind}).
    The kernels dispatch on it with one [match] per gate. *)

val level_array : t -> int array
(** All levels at once (same values as {!level}). *)

val iter_nets : t -> (net -> unit) -> unit

val add_structure : Buffer.t -> t -> unit
(** Append the netlist's structure to a buffer as little-endian int64s:
    net, PI and PO counts, each net's kind as its image opcode (see
    {!encode}), {!fanin_offsets}, {!fanin_csr} and the PO list.  Net
    names are left out.  Every on-disk store keys on this one identity:
    two netlists with equal bytes here simulate identically under every
    pattern.  Test-only: [test_generators] pins every generated
    circuit's digest of it, and [test_store_file] compares decoded
    netlists by it. *)

(** {1 Source and design images}

    A store keys a design's image by what the netlist was built from,
    never by hashing a built netlist: a restarted process finds the
    image before it has a netlist to hash. *)

val source : t -> string
(** The identity of what the netlist was built from: the string
    {!with_source} attached ([Generators.source_key], a [.bench] or
    Verilog file's content digest), or, for a netlist built in code,
    ["structure <hex>"] from the MD5 of {!add_structure}, computed on
    each call. *)

val with_source : string -> t -> t
(** The same netlist, carrying [source]. *)

val encode : Buffer.t -> t -> unit
(** Append the netlist as a design-image section: counts, each net's
    kind as an opcode, the fanin CSR, the PO list, the levels, the
    topological order and the names, every integer a little-endian
    int64.  The opcodes (0 INPUT, 1 GND, 2 VDD, 3 BUF, 4 NOT, 5 AND,
    6 NAND, 7 OR, 8 NOR, 9 XOR, 10 XNOR) are a file format known only
    to this module; renumbering them changes every image and every
    {!source} of a netlist built in code. *)

val decode : ?source:string -> Bigstring.t -> off:int -> len:int -> t option
(** Rebuild the netlist {!encode} wrote into [bytes] at [off, off + len),
    equal to the encoded one in every accessor, carrying [source].
    The bytes are untrusted: [None], never an exception, unless every
    count fits the section exactly, every fanin and PO is in range,
    every arity is legal, no PO is listed twice and no name repeats,
    the stored order lists each net once after all its fanins (so
    there is no cycle) and each stored level is one more than its
    highest fanin's.  The names are copied out as the one string they
    are stored as; {!name} cuts a net's out when asked, and the name
    table is left for {!find} to build. *)

(** {1 Analysis helpers} *)

val fanout_reach : t -> net -> bool array
(** Transitive fanout membership, including the net itself. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: #PI #PO #gates depth. *)

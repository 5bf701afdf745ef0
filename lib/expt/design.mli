(** The design a diagnosis runs on: its netlist, its test set and the
    session over them, read from the design image when a store holds a
    valid one and built otherwise.

    This is the one home of the image's load-or-build rule.
    {!Session.create} does no file I/O, {!Sig_cache.save_frozen} is the
    one image writer, and the command-line tools only turn their flags
    and environment into the arguments below.  Nothing here is an
    engine option: the session holds the problem, each diagnosis takes
    its own {!Noassume.config}, and the kernels run at {!Parallel}'s
    process width. *)

type circuit =
  | File of string
      (** A netlist file: ISCAS [.bench], or structural Verilog when the
          name ends in [.v]. *)
  | Named of string
      (** A suite circuit or a benchmark tier, by name
          ({!Generators.find_suite}, then {!Generators.find_tier}). *)
  | Built of Netlist.t  (** A netlist already in memory. *)

val load_circuit : circuit -> (Netlist.t, string) result
(** Build the netlist.  A parse error names the file and line; an
    unknown name lists the suite and tier names and builds none of
    them. *)

val load_patterns : Netlist.t -> string option -> (Pattern.t, string) result
(** The test set: the pattern file when one is given, parsed under the
    ["pattern.parse"] phase, else the campaign ATPG set
    ({!Campaign.test_set}).  A file whose width is not the netlist's PI
    count is an error that names the file. *)

val session :
  ?store_dir:string ->
  circuit ->
  patterns:string option ->
  (Session.t, string) result
(** The session for [circuit] and its test set ([patterns], a file, or
    the ATPG set when [None]), in this order:

    - with [store_dir], the design image is looked up by the circuit's
      source and the test set's origin, before anything is built, and
      mapped once (the ["store.load"] phase, inside ["netlist.load"]);
    - on a hit, the netlist and the ATPG set are decoded from it; on a
      miss, the netlist is built (["netlist.build"]) and the set
      generated (["tpg"]);
    - under ["session.create"], the session is created.  With
      [store_dir] it ends with the whole arena: the image's signatures
      are adopted (["store.adopt"]), or, when there is no valid image
      or it holds no signatures, {!Session.prewarm} sweeps the pool and
      the image is saved through {!Sig_cache.save_frozen}
      (["store.save"]).  Without [store_dir] the arena starts empty and
      each diagnosis simulates only its own misses.

    Without [store_dir] no file but the circuit and pattern files is
    read.  Reports are byte-identical whichever branch was taken.
    Errors are {!load_circuit}'s and {!load_patterns}'s. *)

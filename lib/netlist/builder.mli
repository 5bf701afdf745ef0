(** Imperative netlist construction.

    The builder allocates dense net ids as gates are added and freezes
    into an immutable {!Netlist.t}.  All circuit generators and the
    `.bench` parser are written against this interface. *)

type t

val create : unit -> t

val input : t -> string -> Netlist.net
(** Declare a primary input net. *)

val gate : t -> string -> Gate.kind -> Netlist.net list -> Netlist.net
(** [gate b name kind fanins] adds a gate driving a fresh net called
    [name].  Raises [Invalid_argument] on duplicate names or arity
    violations (checked again at [finalize]). *)

val fresh : t -> string -> string
(** [fresh b prefix] returns a name of the form [prefix] or [prefix_k]
    that is not yet used, and reserves nothing — call it right before
    [gate]. *)

val mark_output : t -> Netlist.net -> unit
(** Declare a net as primary output, in call order.  A net may be marked
    only once. *)

val finalize : t -> Netlist.t
(** Freeze.  The builder must not be reused afterwards. *)

(** {1 Convenience combinators}

    Shorthand used heavily by the generators; names are auto-generated
    from the prefix. *)

val not_ : t -> ?name:string -> Netlist.net -> Netlist.net
val and_ : t -> ?name:string -> Netlist.net list -> Netlist.net
val or_ : t -> ?name:string -> Netlist.net list -> Netlist.net
val nor_ : t -> ?name:string -> Netlist.net list -> Netlist.net
val xor_ : t -> ?name:string -> Netlist.net list -> Netlist.net
val xnor_ : t -> ?name:string -> Netlist.net list -> Netlist.net
val buf_ : t -> ?name:string -> Netlist.net -> Netlist.net
val mux_ : t -> ?name:string -> sel:Netlist.net -> Netlist.net -> Netlist.net -> Netlist.net
(** [mux_ b ~sel a0 a1] is [a0] when [sel = 0], else [a1]; expands into
    AND/OR/NOT gates. *)

(** Byte buffers outside the OCaml heap: what a mapped file
    ([Unix.map_file]) reads as, and what the design image's decoders
    and the signature arena read from.

    The type is written out, element type and layout both, so a reader
    that annotates its buffer with it gets an inline load from
    [Bigarray.Array1.unsafe_get] rather than a C call per byte. *)

type t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** Uninitialised. *)

val empty : t
(** Zero bytes long. *)

val get64u_le : t -> int -> int64
(** The little-endian int64 at a position, unchecked: one 8-byte load,
    inlined at every call, so a caller that converts it at once
    ([Int64.to_int]) boxes nothing. *)

val get_int64_le : t -> int -> int64
(** {!get64u_le}, raising [Invalid_argument] past the end. *)

val of_bytes : Bytes.t -> t
(** A copy. *)

val blit_from_bytes : Bytes.t -> int -> t -> int -> int -> unit
(** [blit_from_bytes src src_pos dst dst_pos len]; raises
    [Invalid_argument] on a range outside either buffer. *)

val blit_to_bytes : t -> int -> Bytes.t -> int -> int -> unit
(** [blit_to_bytes src src_pos dst dst_pos len], checked likewise. *)

val sub_string : t -> int -> int -> string
(** [sub_string b pos len]: a copy of [len] bytes at [pos]. *)

(** The on-disk envelope shared by the persistent stores: the signature
    snapshot ({!Sig_cache.save_frozen}) and the design's stored test set
    ([Campaign.test_set ~store_dir]).

    File layout, every integer a little-endian int64:

    {v magic (8 bytes) | version | key digest (16 bytes)
    | content digest (16 bytes) | ints (nints × 8 bytes) | body v}

    The key digest names the problem the body answers for; the content
    digest covers the body, so a flipped byte anywhere in the file is
    rejected.  The trailing header ints are the store's own sizes; the
    envelope only carries them.  A file is named by a digest of
    {!Netlist.add_structure}, so a stale file for the same design is
    found, rejected and overwritten instead of piling up beside the
    fresh one. *)

exception Invalid
(** Raised by a store's decoder to reject a file whose envelope checked
    out but whose body does not (a failed structural walk). *)

type kind = {
  magic : string;  (** 8 bytes. *)
  version : int;  (** Bump when the body's encoding changes. *)
  saves : Obs.counter;
  loads : Obs.counter;
  rejects : Obs.counter;
}
(** One store's identity and its traffic counters. *)

val path : dir:string -> prefix:string -> ext:string -> Netlist.t -> string
(** [dir/prefix-<12 hex>.ext], the hex taken from the MD5 of the
    netlist's {!Netlist.add_structure} bytes. *)

val save : kind -> path:string -> key:Digest.t -> ints:int array -> string -> bool
(** Write header and body atomically (temp file + rename), creating the
    directory if it is missing.  True bumps [kind.saves]; false means
    the write failed and left no file behind. *)

val load :
  kind ->
  path:string ->
  key:Digest.t ->
  nints:int ->
  (int array -> Bytes.t -> 'a) ->
  'a option
(** Read [path], check magic, version, key digest and content digest,
    and hand the header ints and the body to the decoder.  [None] when
    no file exists (not counted) or when a check or the decoder
    rejected it ([Invalid] or [Invalid_argument], counted in
    [kind.rejects]).  [Some] bumps [kind.loads]. *)

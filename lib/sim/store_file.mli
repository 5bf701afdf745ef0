(** The design image: one file per design in a store directory, holding
    everything a restarted process would otherwise rebuild — the
    netlist, the test set and the signature arena — behind one read and
    one integrity check.

    File layout, every integer a little-endian int64:

    {v magic "MDDIMAGE" (8 bytes) | version | key (16 bytes)
    | checksum s1 | checksum s2
    | nsections | per section: nints | ints (nints) | len
    | section bytes, in section order v}

    The file is named by the design's {!Netlist.source} alone, so an
    image for another test set, or one an older binary wrote, is found,
    rejected and overwritten instead of piling up beside the fresh one.
    The key is the MD5 of the source and the test set's
    {!Pattern.origin}: a short string, hashed in microseconds, where
    keying on a built netlist would mean building it first.  The
    checksum ({!checksum}) covers every byte after it.

    A loaded image is the file mapped read-only ([Unix.map_file],
    private): the checks and every decoder read it in place, and the
    signature arena keeps it as its slab.  The mapping contract: an
    image is only ever replaced by writing a temp file and renaming it
    over the old one ({!save} does), never written or truncated in
    place.  A process that maps the old file keeps reading the old
    inode, whole.  A truncation in place under a live mapping makes the
    next read of a page past the new end raise [SIGBUS], which no
    bounds check can prevent. *)

exception Invalid
(** Raised by a section decoder to reject an image whose envelope
    checked out but whose section does not. *)

type section = { ints : int array; off : int; len : int }
(** A section's header ints and its bytes, [data.{off} .. off + len - 1]
    of the image's buffer.  An absent section has no ints and no
    bytes. *)

type image = { data : Bigstring.t; sections : section array }
(** A checked image: its envelope, key and checksum held, and its
    section table fits the file exactly.  [data] is the whole file,
    mapped; a decoder may keep it but never writes it. *)

val signatures_section : int
(** The signatures' index in [sections]. *)

val netlist_section : int
(** The netlist's index in [sections].  Test-only: the image forgery
    tests ([test_store_file], [test_design]) edit a section by its
    index with [Image_edit] and reseal the image with {!checksum}. *)

val tests_section : int
(** The test set's index in [sections].  Test-only, as
    {!netlist_section}. *)

val path : dir:string -> source:string -> string
(** [dir/design-<12 hex>.mddimg], the hex taken from the MD5 of
    [source]. *)

val key : Netlist.t -> Pattern.t -> Digest.t
(** The MD5 of the netlist's {!Netlist.source} and the set's
    {!Pattern.origin}. *)

val key_of : source:string -> origin:string -> Digest.t
(** {!key} before either value is built: the ATPG flow's origin is
    known before its set is. *)

val checksum : Bigstring.t -> pos:int -> len:int -> int * int
(** The image checksum of [len] bytes at [pos]: two sums modulo the
    prime [p = 2^61 - 1] over the 32-bit little-endian words of the
    length followed by the bytes, zero-padded to a multiple of 8.  [s1] is
    the plain sum and [s2] the sum of [s1]'s running values, i.e. each
    word weighted by its distance from the end.  See the
    implementation for what it detects.  Test-only: [Image_edit]
    reseals forged images with it. *)

val save :
  path:string ->
  key:Digest.t ->
  Netlist.t ->
  Pattern.t ->
  signatures:(int array * string) option ->
  bool
(** Write the image of a netlist, its test set and optionally a
    signature section (its ints and bytes) atomically (temp file +
    rename), creating the directory if it is missing.  True bumps
    ["store.saves"]; false means the write failed and left no file
    behind. *)

val load : path:string -> key:Digest.t -> (image -> 'a) -> 'a option
(** Map [path], check magic, version, key, checksum and the section
    table, and hand the image to the decoder.  [None] when no file
    exists or it cannot be opened or mapped (not counted), or when a
    check or the decoder rejected it ([Invalid] or [Invalid_argument],
    counted in ["store.rejects"]; a file shorter than the header, empty
    included, is rejected without being mapped).  [Some] bumps
    ["store.loads"]. *)

val reject : unit -> unit
(** Count a rejection a caller found in a section it decodes after
    {!load} returned: ["store.rejects"]. *)

val decode_netlist : ?source:string -> image -> Netlist.t
(** The netlist section, through {!Netlist.decode}.  Raises [Invalid]. *)

val decode_tests : ?origin:string -> npis:int -> image -> Pattern.t
(** The test-set section: [count] rows of [npis] '0'/'1' characters
    and a newline each ({!Pattern.to_text}), with the section ints
    [npis; count].  The rows are walked before {!Pattern.of_text} sees
    them: [of_text] trims blanks, so alone it would accept narrower
    rows as a narrower set.  Raises [Invalid]. *)

(* Append-only packed memo of per-fault PO-diff triples, shared by every
   diagnosis phase that fault-simulates against one (netlist, pattern
   set) problem.  See the interface for the concurrency and determinism
   contract.  Each [Diag.Session] creates and owns exactly one instance;
   there is no registry, so a dropped session frees its cache with
   it. *)

let c_hits = Obs.counter "cache.hits"
let c_misses = Obs.counter "cache.misses"

(* Footprint of the packed arena (slab bytes in use + start
   index + presence bitmap, in bytes); published as a counter delta at
   each append/load so `--stats` shows what the arena actually holds. *)
let c_frozen_bytes = Obs.counter "cache.frozen_bytes"

(* One published version of the packed arena.  [slab] holds every
   present key's triples ([encode_triples]) in append order; key [k]'s
   encoding starts at [starts.(k)] and bit [k] of [present] says whether
   the key has an entry at all (a key can legitimately have zero
   triples — a fault that diffs nowhere).  [starts.(k)] is only read
   when the bit is set, and bytes of [slab] at or past [used] belong to
   no key of this version, so neither is reachable through this
   version: the next append writes there, under the append lock, before
   publishing the version that makes them reachable.  Bytes before
   [base] belong to no key either: a loaded arena keeps the mapped
   design image as its slab, every other section included, instead of
   copying the encodings out.  A mapped slab is full ([used] is its
   length), so the first append copies it into one of its own and
   nothing ever writes a mapping.  The slab is one type for both: a
   [Bigstring.t], read with the element type and layout known at every
   access, so each byte read is an inline load.  The empty arena has
   zero-length arrays; the first append allocates the [nkeys]-sized
   index. *)
type arena = {
  slab : Bigstring.t;
  base : int;
  used : int;
  starts : int array;
  present : Bytes.t;
}

type t = {
  net : Netlist.t;
  pats : Pattern.t;
  (* Reads are one [Atomic.get] plus a bounded decode of one key's byte
     range — no hashing, no mutex.  Every byte a published version can
     reach is written before the [Atomic.set] that publishes it (OCaml
     memory model: the appending domain's writes happen-before the
     [Atomic.set], which happens-before any reader's [Atomic.get] that
     observes it), and no byte an earlier version can reach is written
     again. *)
  arena : arena Atomic.t;
  append_lock : Mutex.t; (* serialises appends and loads; readers never take it *)
}

let empty =
  { slab = Bigstring.empty; base = 0; used = 0; starts = [||]; present = Bytes.empty }
let key ~site ~stuck = (2 * site) + Bool.to_int stuck
let num_keys t = 2 * Netlist.num_nets t.net
let word_bytes = Sys.word_size / 8

let arena_bytes a =
  a.used - a.base + (Array.length a.starts * word_bytes) + Bytes.length a.present

(* --- Varint codec ---------------------------------------------------- *)

(* LEB128 over the 63-bit unsigned view of an OCaml int: [lsr] pulls the
   tag-free bit pattern down regardless of sign, so any value, negative
   ones included, round-trips exactly; at most ceil(63/7) = 9 bytes per
   value. *)
let put_uvarint buf v =
  let v = ref v in
  while !v lsr 7 <> 0 do
    Buffer.add_char buf (Char.unsafe_chr (!v land 0x7f lor 0x80));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr (!v land 0x7f))

(* Zigzag for the (normally non-negative, tiny) block/PO deltas: the
   canonical triple order makes them >= 0, but the codec must not turn a
   non-canonical store — nothing forbids one — into corruption. *)
let put_svarint buf v = put_uvarint buf ((v lsl 1) lxor (v asr 62))

let unzigzag u = (u lsr 1) lxor -(u land 1)

(* The unsigned varint starting at byte [p] ([uvarint_at]) and the
   position just past it ([uvarint_end]).  Unchecked: [walk] only reads
   ranges [scan_key] has walked, or that [encode_triples] wrote. *)
let uvarint_at (bytes : Bigstring.t) p =
  let v = ref 0 and shift = ref 0 and p = ref p and cont = ref true in
  while !cont do
    let b = Char.code (Bigarray.Array1.unsafe_get bytes !p) in
    incr p;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    cont := b land 0x80 <> 0
  done;
  !v

let uvarint_end (bytes : Bigstring.t) p =
  let p = ref p in
  while Char.code (Bigarray.Array1.unsafe_get bytes !p) land 0x80 <> 0 do
    incr p
  done;
  !p + 1

(* One key's triples, encoded as [uvarint count] then per triple
   [svarint d_block; svarint d_po; int64 word] (little-endian, 8
   bytes).  The block index is delta-coded against the previous
   triple's; the PO index is delta-coded within a block (reset at each
   block change), exploiting the canonical order — blocks ascending,
   POs ascending within a block — for one-byte deltas.  The word is
   fixed-width: a diff word's set bits are patterns spread across the
   block, so as a varint most words would take 8 or 9 bytes (rnd2k:
   76,348 of 127,910), each byte read with a branch; one 8-byte load
   costs a little space and no loop.  [Int64.of_int] sign-extends the
   63-bit word and [Int64.to_int] drops the copy of bit 62, so every
   word round-trips. *)
let encode_triples buf (triples : int array) =
  let n = Array.length triples / 3 in
  put_uvarint buf n;
  let prev_bi = ref 0 and prev_oi = ref (-1) in
  for i = 0 to n - 1 do
    let bi = triples.(3 * i) and oi = triples.((3 * i) + 1) and w = triples.((3 * i) + 2) in
    let dbi = bi - !prev_bi in
    if dbi <> 0 then prev_oi := -1;
    put_svarint buf dbi;
    put_svarint buf (oi - !prev_oi);
    Buffer.add_int64_le buf (Int64.of_int w);
    prev_bi := bi;
    prev_oi := oi
  done

(* The position just past the encoding that starts at [start]. *)
let encoding_end (bytes : Bigstring.t) start =
  let pos = ref (uvarint_end bytes start) in
  for _ = 1 to uvarint_at bytes start do
    pos := uvarint_end bytes (uvarint_end bytes !pos) + 8
  done;
  !pos

let bit_set bytes k = Char.code (Bytes.unsafe_get bytes (k lsr 3)) land (1 lsl (k land 7)) <> 0

let bit_mark bytes k =
  Bytes.unsafe_set bytes (k lsr 3)
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bytes (k lsr 3)) lor (1 lsl (k land 7))))

(* --- Reads ----------------------------------------------------------- *)

(* Whether arena [a] holds key [k]: the one membership test. *)
let holds a k = k >= 0 && k < Array.length a.starts && bit_set a.present k

(* A growable triple buffer the caller owns: [data.(0 .. len - 1)]
   holds the last decoded row. *)
type buf = { mutable data : int array; mutable len : int }

let buffer () = { data = [||]; len = 0 }

(* The one decoder: key [k]'s triples out of [a] into [b], inverting
   [encode_triples].  [a] must hold [k].  The buffer grows to the row's
   length, or to twice its capacity if that is more, so a buffer grown
   from empty holds exactly the row, and the row's stores need no
   bounds check.  The deltas decode inline on a local position — one
   byte each in the canonical order, with [uvarint_at] only for the
   rare longer one — and the word is a single 8-byte load, unchecked:
   [walk] only reads ranges that [scan_key] or [encode_triples] has
   proved whole, as it already does for the varint bytes. *)
let walk a k b =
  let bytes = a.slab in
  let start = a.starts.(k) in
  let len = 3 * uvarint_at bytes start in
  if Array.length b.data < len then b.data <- Array.make (max len (2 * Array.length b.data)) 0;
  let data = b.data in
  let pos = ref (uvarint_end bytes start) in
  let bi = ref 0 and oi = ref (-1) in
  let i = ref 0 in
  while !i < len do
    let c = Char.code (Bigarray.Array1.unsafe_get bytes !pos) in
    let dbi = if c < 0x80 then c else uvarint_at bytes !pos in
    pos := if c < 0x80 then !pos + 1 else uvarint_end bytes !pos;
    if dbi <> 0 then begin
      bi := !bi + unzigzag dbi;
      oi := -1
    end;
    let c = Char.code (Bigarray.Array1.unsafe_get bytes !pos) in
    let doi = if c < 0x80 then c else uvarint_at bytes !pos in
    pos := if c < 0x80 then !pos + 1 else uvarint_end bytes !pos;
    oi := !oi + unzigzag doi;
    Array.unsafe_set data !i !bi;
    Array.unsafe_set data (!i + 1) !oi;
    Array.unsafe_set data (!i + 2) (Int64.to_int (Bigstring.get64u_le bytes !pos));
    pos := !pos + 8;
    i := !i + 3
  done;
  b.len <- len

let mem t k = holds (Atomic.get t.arena) k

let decode t k b =
  let a = Atomic.get t.arena in
  if holds a k then walk a k b else invalid_arg "Sig_cache.decode: key not in the arena"

(* One read of the arena for the whole batch, and one bump of each
   counter. *)
let missing t keys =
  let a = Atomic.get t.arena in
  let n = Array.length keys in
  let miss = Array.make n 0 and nmiss = ref 0 in
  for i = 0 to n - 1 do
    if not (holds a keys.(i)) then begin
      miss.(!nmiss) <- i;
      incr nmiss
    end
  done;
  if Obs.enabled () then begin
    Obs.add c_hits (n - !nmiss);
    Obs.add c_misses !nmiss
  end;
  Array.sub miss 0 !nmiss

let frozen_bytes t = arena_bytes (Atomic.get t.arena)

(* --- Appends --------------------------------------------------------- *)

(* Publish [a] as the current version, keeping the [cache.frozen_bytes]
   counter equal to the resident footprint.  The caller holds the
   append lock. *)
let publish t a =
  let old = frozen_bytes t in
  Atomic.set t.arena a;
  if Obs.enabled () then Obs.add c_frozen_bytes (arena_bytes a - old)

(* Encode the batch outside the lock, then, under it, copy the rows
   whose keys the current version lacks (first writer wins — values are
   pure, so a racing writer's row is the same bytes) into the slab past
   [used], record their starts, mark them in a fresh bitmap and
   publish.  The bitmap is copied rather than marked in place: an
   older version's readers still test neighbouring bits of the same
   bytes.  The slab and the index are shared with older versions, which
   reach neither the bytes past their [used] nor the start of a key
   their bitmap lacks; a slab that is out of room — a mapped one always
   is — is copied into one at least twice the size.  A triple takes at
   least 10 bytes, so the buffer is sized for the batch up front. *)
let store t keys rows =
  let n = Array.length keys in
  if Array.length rows <> n then invalid_arg "Sig_cache.store: keys and rows differ in length";
  let nkeys = num_keys t in
  Array.iter
    (fun k -> if k < 0 || k >= nkeys then invalid_arg "Sig_cache.store: key out of range")
    keys;
  let size = Array.fold_left (fun acc row -> acc + 1 + (10 * Array.length row / 3)) 16 rows in
  let buf = Buffer.create size in
  let offs = Array.make (n + 1) 0 in
  Array.iteri
    (fun i row ->
      encode_triples buf row;
      offs.(i + 1) <- Buffer.length buf)
    rows;
  let enc = Buffer.to_bytes buf in
  Mutex.protect t.append_lock (fun () ->
      let a = Atomic.get t.arena in
      (* Every row takes at least one byte, so [need > 0] iff some key
         is new. *)
      let need = ref 0 in
      Array.iteri
        (fun i k -> if not (holds a k) then need := !need + offs.(i + 1) - offs.(i))
        keys;
      if !need > 0 then begin
        let starts = if a.starts = [||] then Array.make nkeys 0 else a.starts in
        let present =
          if a.starts = [||] then Bytes.make ((nkeys + 7) / 8) '\000' else Bytes.copy a.present
        in
        let slab =
          if a.used + !need <= Bigarray.Array1.dim a.slab then a.slab
          else begin
            let size = max (2 * Bigarray.Array1.dim a.slab) (a.used + !need) in
            let s = Bigstring.create size in
            Bigarray.Array1.(blit (sub a.slab 0 a.used) (sub s 0 a.used));
            s
          end
        in
        let used = ref a.used in
        Array.iteri
          (fun i k ->
            (* Also skips a key repeated earlier in this batch. *)
            if not (bit_set present k) then begin
              let len = offs.(i + 1) - offs.(i) in
              Bigstring.blit_from_bytes enc offs.(i) slab !used len;
              starts.(k) <- !used;
              bit_mark present k;
              used := !used + len
            end)
          keys;
        publish t { slab; base = a.base; used = !used; starts; present }
      end)

(* --- The design image's signature section ---------------------------- *)

(* One image per design ([Store_file]): its name comes from the
   netlist's source, so re-running with a different pattern set finds
   the same file and rejects it by its key (an observable
   [store.rejects], then an overwrite on the next save) instead of
   silently accumulating stale siblings. *)
let store_path ~dir t = Store_file.path ~dir ~source:(Netlist.source t.net)

(* Section layout: the ints [nkeys | index_len | slab_len], then

     packed index (index_len bytes) | present bitmap | slab

   The slab holds the present keys' encodings in key order, whatever
   order they were appended in, so the section depends only on which
   keys are present.  The packed index is the per-key byte lengths
   varint-coded (0 for an absent key).  [None] while the arena is
   empty. *)
let section t =
  let a = Atomic.get t.arena in
  if a.starts = [||] then None
  else begin
    let nkeys = Array.length a.starts in
    let len k =
      if bit_set a.present k then encoding_end a.slab a.starts.(k) - a.starts.(k) else 0
    in
    let index = Buffer.create (2 * nkeys) in
    let slab_len = ref 0 in
    for k = 0 to nkeys - 1 do
      put_uvarint index (len k);
      slab_len := !slab_len + len k
    done;
    let index_len = Buffer.length index and bitmap_len = Bytes.length a.present in
    let body = Bytes.create (index_len + bitmap_len + !slab_len) in
    Buffer.blit index 0 body 0 index_len;
    Bytes.blit a.present 0 body index_len bitmap_len;
    let at = ref (index_len + bitmap_len) in
    for k = 0 to nkeys - 1 do
      if bit_set a.present k then begin
        Bigstring.blit_to_bytes a.slab a.starts.(k) body !at (len k);
        at := !at + len k
      end
    done;
    Some ([| nkeys; index_len; !slab_len |], Bytes.unsafe_to_string body)
  end

let save_frozen ~dir t =
  Store_file.save ~path:(store_path ~dir t) ~key:(Store_file.key t.net t.pats) t.net
    t.pats ~signatures:(section t)

(* Bounds-checked varint read for untrusted bytes: the unsafe decoder
   above is only ever pointed at ranges this function has fully walked
   first. *)
let safe_uvarint (bytes : Bigstring.t) pos limit =
  let v = ref 0 and shift = ref 0 and cont = ref true in
  while !cont do
    (* [> 62]: a 9-byte group ends at shift 56; any continuation past
       shift 62 would need an [lsl] of 63+, unspecified on native ints. *)
    if !pos >= limit || !shift > 62 then raise Store_file.Invalid;
    let b = Char.code (Bigarray.Array1.get bytes !pos) in
    incr pos;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    cont := b land 0x80 <> 0
  done;
  !v

(* The position just past the varint at [p], checked as [safe_uvarint]
   checks it. *)
let skip_uvarint (bytes : Bigstring.t) p limit =
  let p = ref p and len = ref 1 in
  while
    if !p >= limit || !len > 9 then raise Store_file.Invalid;
    Char.code (Bigarray.Array1.get bytes !p) land 0x80 <> 0
  do
    incr p;
    incr len
  done;
  !p + 1

external get16u_ne : Bigstring.t -> int -> int = "%caml_bigstring_get16u"

(* Walk one key's encoding checked, returning its triple count; raises
   [Store_file.Invalid] unless the triples fill [start, limit) exactly.
   What the unchecked [walk] needs for memory safety is that each of
   its varint scans and 8-byte word loads stays inside the range, so
   this walks the same steps with every read bounded: per triple two
   [safe_uvarint]s and a word that must fit before [limit], and the
   last triple must end on [limit].  Counting varint terminators cannot
   stand in for the walk: word bytes carry arbitrary high bits.  A
   triple is at least 10 bytes, which bounds the count before the walk
   starts.  The canonical triple — both deltas one byte — takes the
   fast path: when 10 bytes remain and neither delta byte has its
   continuation bit (one 16-bit load tests both), the slow path would
   read exactly those two bytes and the word after them, all inside
   the range, so stepping 10 bytes accepts and rejects what it does.
   The position is a local the slow path returns, never a shared
   [ref], so the loop keeps it in a register. *)
let scan_key (bytes : Bigstring.t) start limit =
  let first = ref start in
  let n = safe_uvarint bytes first limit in
  if n < 0 || n > (limit - !first) / 10 then raise Store_file.Invalid;
  if limit > Bigarray.Array1.dim bytes then raise Store_file.Invalid;
  let pos = ref !first in
  for _ = 1 to n do
    let p = !pos in
    if p + 10 <= limit && get16u_ne bytes p land 0x8080 = 0 then pos := p + 10
    else begin
      let p = skip_uvarint bytes (skip_uvarint bytes p limit) limit in
      if p + 8 > limit then raise Store_file.Invalid;
      pos := p + 8
    end
  done;
  if !pos <> limit then raise Store_file.Invalid;
  n

(* Rebuild the arena from a checked image's signature section, or
   raise; [None] when the image has no such section.  The mapped image
   itself becomes the slab, the encodings starting at [base] and
   running to its end, so the slab is full: the first append copies
   it, and nothing writes the mapping. *)
let decode_arena t (image : Store_file.image) =
  let s = image.Store_file.sections.(Store_file.signatures_section) in
  if s.Store_file.ints = [||] && s.Store_file.len = 0 then None
  else begin
    let body = image.Store_file.data in
    if Array.length s.ints <> 3 || s.off + s.len <> Bigarray.Array1.dim body then
      raise Store_file.Invalid;
    let nkeys = s.ints.(0) and index_len = s.ints.(1) and slab_len = s.ints.(2) in
    if nkeys <> num_keys t then raise Store_file.Invalid;
    let bitmap_len = (nkeys + 7) / 8 in
    if index_len < 0 || slab_len < 0 || s.len <> index_len + bitmap_len + slab_len then
      raise Store_file.Invalid;
    let present = Bytes.create bitmap_len in
    Bigstring.blit_to_bytes body (s.off + index_len) present 0 bitmap_len;
    let base = s.off + index_len + bitmap_len in
    (* One pass over the index.  Each key's range must fit the slab, and
       every present key's triples are walked once, bounds-checked: a
       section that passed the checksum but whose triples overrun their
       range must be rejected here, at load — the lock-free decoder
       reads unchecked and must never see it.  An absent key with a
       non-empty range (or vice versa, a present key whose range cannot
       hold its count) is equally malformed. *)
    let starts = Array.make nkeys 0 in
    let pos = ref s.off and off = ref 0 in
    for k = 0 to nkeys - 1 do
      let len = safe_uvarint body pos (s.off + index_len) in
      if len < 0 || !off > slab_len - len then raise Store_file.Invalid;
      let start = base + !off in
      if bit_set present k then ignore (scan_key body start (start + len) : int)
      else if len <> 0 then raise Store_file.Invalid;
      starts.(k) <- start;
      off := !off + len
    done;
    if !pos <> s.off + index_len || !off <> slab_len then raise Store_file.Invalid;
    Some { slab = body; base; used = Bigarray.Array1.dim body; starts; present }
  end

let adopt_arena t a = Mutex.protect t.append_lock (fun () -> publish t a)

let adopt t image =
  match decode_arena t image with
  | Some a ->
    adopt_arena t a;
    true
  | None -> false
  | exception (Store_file.Invalid | Invalid_argument _) ->
    Store_file.reject ();
    false

let load_frozen ~dir t =
  match
    Store_file.load ~path:(store_path ~dir t) ~key:(Store_file.key t.net t.pats)
      (decode_arena t)
  with
  | Some (Some a) ->
    adopt_arena t a;
    true
  | Some None | None -> false

(* --- Construction ---------------------------------------------------- *)

let create net pats =
  { net; pats; arena = Atomic.make empty; append_lock = Mutex.create () }

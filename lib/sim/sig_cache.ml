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

(* Snapshot store traffic: arenas written to disk, arenas adopted from
   disk, and candidate files rejected by validation (truncation, header
   corruption, digest mismatch, stale encode version).  A reject is
   never an error — the caller falls back to a live prewarm — but a
   fleet where rejects dominate loads has a stale or misconfigured
   store directory, which is exactly what these counters surface. *)
let c_store_saves = Obs.counter "store.saves"
let c_store_loads = Obs.counter "store.loads"
let c_store_rejects = Obs.counter "store.rejects"

(* One published version of the packed arena.  [slab] holds every
   present key's triples ([encode_triples]) in append order; key [k]'s
   encoding starts at [starts.(k)] and bit [k] of [present] says whether
   the key has an entry at all (a key can legitimately have zero
   triples — a fault that diffs nowhere).  [starts.(k)] is only read
   when the bit is set, and bytes of [slab] at or past [used] belong to
   no key of this version, so neither is reachable through this
   version: the next append writes there, under the append lock, before
   publishing the version that makes them reachable.  Bytes before
   [base] belong to no key either: a loaded arena keeps the snapshot
   body it was read into as its slab, index and bitmap included,
   instead of copying the encodings out.  The empty arena has
   zero-length arrays; the first append allocates the [nkeys]-sized
   index. *)
type arena = {
  slab : Bytes.t;
  base : int;
  used : int;
  starts : int array;
  present : Bytes.t;
}

type t = {
  net : Netlist.t;
  pats : Pattern.t;
  blocks : Pattern.block array;
  goods : Logic_sim.net_values array;
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
  { slab = Bytes.empty; base = 0; used = 0; starts = [||]; present = Bytes.empty }
let goods t = t.goods
let blocks t = t.blocks
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
let uvarint_at bytes p =
  let v = ref 0 and shift = ref 0 and p = ref p and cont = ref true in
  while !cont do
    let b = Char.code (Bytes.unsafe_get bytes !p) in
    incr p;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    cont := b land 0x80 <> 0
  done;
  !v

let uvarint_end bytes p =
  let p = ref p in
  while Char.code (Bytes.unsafe_get bytes !p) land 0x80 <> 0 do
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
let encoding_end bytes start =
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

(* The one decoder: stream key [k]'s triples out of [a] as [f block po
   word] calls, inverting [encode_triples].  [a] must hold [k].  The
   deltas decode inline on a local position — one byte each in the
   canonical order, with [uvarint_at] only for the rare longer one —
   and the word is a single 8-byte load. *)
let walk a k f =
  let bytes = a.slab in
  let start = a.starts.(k) in
  let n = uvarint_at bytes start in
  let pos = ref (uvarint_end bytes start) in
  let bi = ref 0 and oi = ref (-1) in
  for _ = 1 to n do
    let b = Char.code (Bytes.unsafe_get bytes !pos) in
    let dbi = if b < 0x80 then b else uvarint_at bytes !pos in
    pos := if b < 0x80 then !pos + 1 else uvarint_end bytes !pos;
    if dbi <> 0 then begin
      bi := !bi + unzigzag dbi;
      oi := -1
    end;
    let b = Char.code (Bytes.unsafe_get bytes !pos) in
    let doi = if b < 0x80 then b else uvarint_at bytes !pos in
    pos := if b < 0x80 then !pos + 1 else uvarint_end bytes !pos;
    oi := !oi + unzigzag doi;
    f !bi !oi (Int64.to_int (Bytes.get_int64_le bytes !pos));
    pos := !pos + 8
  done

let count_probe hit = if Obs.enabled () then Obs.incr (if hit then c_hits else c_misses)
let mem t k = holds (Atomic.get t.arena) k

let probe t k =
  let hit = mem t k in
  count_probe hit;
  hit

let find t k =
  let a = Atomic.get t.arena in
  let hit = holds a k in
  count_probe hit;
  if not hit then None
  else begin
    let triples = Array.make (3 * uvarint_at a.slab a.starts.(k)) 0 in
    let i = ref 0 in
    walk a k (fun bi oi w ->
        triples.(!i) <- bi;
        triples.(!i + 1) <- oi;
        triples.(!i + 2) <- w;
        i := !i + 3);
    Some triples
  end

let iter t k f =
  let a = Atomic.get t.arena in
  if holds a k then walk a k f else invalid_arg "Sig_cache.iter: key not in the arena"

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
   their bitmap lacks; a slab that is out of room is copied into one at
   least twice the size.  A triple takes at least 10 bytes, so the
   buffer is sized for the batch up front. *)
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
          if a.used + !need <= Bytes.length a.slab then a.slab
          else begin
            let s = Bytes.create (max (2 * Bytes.length a.slab) (a.used + !need)) in
            Bytes.blit a.slab 0 s 0 a.used;
            s
          end
        in
        let used = ref a.used in
        Array.iteri
          (fun i k ->
            (* Also skips a key repeated earlier in this batch. *)
            if not (bit_set present k) then begin
              let len = offs.(i + 1) - offs.(i) in
              Buffer.blit buf offs.(i) slab !used len;
              starts.(k) <- !used;
              bit_mark present k;
              used := !used + len
            end)
          keys;
        publish t { slab; base = a.base; used = !used; starts; present }
      end)

let signature_of_triples t triples =
  let npos = Netlist.num_pos t.net in
  let npatterns = Pattern.count t.pats in
  let signature = Array.init npos (fun _ -> Bitvec.create npatterns) in
  let i = ref 0 in
  while !i < Array.length triples do
    let bi = triples.(!i) and oi = triples.(!i + 1) and d = triples.(!i + 2) in
    let base = t.blocks.(bi).Pattern.base in
    Logic.iter_bits d (fun bit -> Bitvec.set signature.(oi) (base + bit) true);
    i := !i + 3
  done;
  signature

(* --- Disk snapshot store -------------------------------------------- *)

(* Bump when the arena encoding or the file layout changes: a snapshot
   written by an older binary must be rejected, not misdecoded. *)
let encode_version = 2

let store_kind =
  {
    Store_file.magic = "MDDSIGST";
    version = encode_version;
    saves = c_store_saves;
    loads = c_store_loads;
    rejects = c_store_rejects;
  }

(* Identity of the problem a snapshot answers for: a digest over the
   netlist structure (gate kinds, fanin adjacency, PO list — names are
   irrelevant to signatures) and the exact pattern set.  Anything that
   could change one cached triple changes this digest, so a loaded
   arena is byte-equivalent to a live sweep or it is rejected. *)
let problem_digest t =
  let buf = Buffer.create (1 lsl 16) in
  let add v = Buffer.add_int64_le buf (Int64.of_int v) in
  Netlist.add_structure buf t.net;
  add (Pattern.count t.pats);
  add (Pattern.npis t.pats);
  Array.iter
    (fun (b : Pattern.block) ->
      add b.Pattern.base;
      add b.Pattern.width;
      Array.iter add b.Pattern.pi_words)
    t.blocks;
  Digest.bytes (Buffer.to_bytes buf)

(* One snapshot file per netlist structure: re-running with a different
   pattern set or encode version finds the *same* file and rejects it
   via the header (an observable [store.rejects], then an overwrite on
   the next save) instead of silently accumulating stale siblings. *)
let store_path ~dir t = Store_file.path ~dir ~prefix:"sig" ~ext:"mddsig" t.net

(* Body layout, after the envelope's header with the trailing ints
   [nkeys | index_len | slab_len]:

     packed index (index_len bytes) | present bitmap | slab

   The slab holds the present keys' encodings in key order, whatever
   order they were appended in, so the file depends only on which keys
   are present.  The packed index is the per-key byte lengths
   varint-coded (0 for an absent key). *)
let save_frozen ~dir t =
  let a = Atomic.get t.arena in
  if a.starts = [||] then false
  else begin
    let nkeys = Array.length a.starts in
    let len k =
      if bit_set a.present k then encoding_end a.slab a.starts.(k) - a.starts.(k) else 0
    in
    let body = Buffer.create (a.used + nkeys + 64) in
    for k = 0 to nkeys - 1 do
      put_uvarint body (len k)
    done;
    let index_len = Buffer.length body in
    Buffer.add_bytes body a.present;
    for k = 0 to nkeys - 1 do
      if bit_set a.present k then Buffer.add_subbytes body a.slab a.starts.(k) (len k)
    done;
    Store_file.save store_kind ~path:(store_path ~dir t) ~key:(problem_digest t)
      ~ints:[| nkeys; index_len; Buffer.length body - index_len - Bytes.length a.present |]
      (Buffer.contents body)
  end

(* Bounds-checked varint read for untrusted bytes: the unsafe decoder
   above is only ever pointed at ranges this function has fully walked
   first. *)
let safe_uvarint bytes pos limit =
  let v = ref 0 and shift = ref 0 and cont = ref true in
  while !cont do
    (* [> 62]: a 9-byte group ends at shift 56; any continuation past
       shift 62 would need an [lsl] of 63+, unspecified on native ints. *)
    if !pos >= limit || !shift > 62 then raise Store_file.Invalid;
    let b = Char.code (Bytes.get bytes !pos) in
    incr pos;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    cont := b land 0x80 <> 0
  done;
  !v

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
   continuation bit, the slow path would read exactly those two bytes
   and the word after them, all inside the range, so stepping 10 bytes
   accepts and rejects what it does. *)
let scan_key bytes start limit =
  let pos = ref start in
  let n = safe_uvarint bytes pos limit in
  if n < 0 || n > (limit - !pos) / 10 then raise Store_file.Invalid;
  if limit > Bytes.length bytes then raise Store_file.Invalid;
  for _ = 1 to n do
    let p = !pos in
    if
      p + 10 <= limit
      && Char.code (Bytes.unsafe_get bytes p) < 0x80
      && Char.code (Bytes.unsafe_get bytes (p + 1)) < 0x80
    then pos := p + 10
    else begin
      ignore (safe_uvarint bytes pos limit : int);
      ignore (safe_uvarint bytes pos limit : int);
      if !pos + 8 > limit then raise Store_file.Invalid;
      pos := !pos + 8
    end
  done;
  if !pos <> limit then raise Store_file.Invalid;
  n

(* Rebuild the arena from a body the envelope has checked, or raise.
   The body itself becomes the slab, its encodings starting at [base]:
   the envelope read it into a buffer of its own, so nothing else
   holds it. *)
let decode_arena t ints body =
  let nkeys = ints.(0) and index_len = ints.(1) and slab_len = ints.(2) in
  if nkeys <> num_keys t then raise Store_file.Invalid;
  let bitmap_len = (nkeys + 7) / 8 in
  if
    index_len < 0 || slab_len < 0
    || Bytes.length body <> index_len + bitmap_len + slab_len
  then raise Store_file.Invalid;
  let pos = ref 0 in
  let offs = Array.make (nkeys + 1) 0 in
  for k = 0 to nkeys - 1 do
    let len = safe_uvarint body pos index_len in
    if len < 0 || offs.(k) > slab_len - len then raise Store_file.Invalid;
    offs.(k + 1) <- offs.(k) + len
  done;
  if !pos <> index_len || offs.(nkeys) <> slab_len then raise Store_file.Invalid;
  let present = Bytes.sub body index_len bitmap_len in
  let base = index_len + bitmap_len in
  (* Walk every key's triples once, bounds-checked: a snapshot that
     passed the digests but whose triples overrun their offset range
     must be rejected here, at load — the lock-free probe path decodes
     unchecked and must never see it.  An absent key with a non-empty
     range (or vice versa, a present key whose range cannot hold its
     count) is equally malformed. *)
  for k = 0 to nkeys - 1 do
    if bit_set present k then
      ignore (scan_key body (base + offs.(k)) (base + offs.(k + 1)) : int)
    else if offs.(k) <> offs.(k + 1) then raise Store_file.Invalid
  done;
  {
    slab = body;
    base;
    used = Bytes.length body;
    starts = Array.init nkeys (fun k -> base + offs.(k));
    present;
  }

let load_frozen ~dir t =
  match
    Store_file.load store_kind ~path:(store_path ~dir t) ~key:(problem_digest t) ~nints:3
      (decode_arena t)
  with
  | Some a ->
    Mutex.protect t.append_lock (fun () -> publish t a);
    true
  | None -> false

(* --- Construction ---------------------------------------------------- *)

let create net pats =
  let blocks = Array.of_list (Pattern.blocks pats) in
  {
    net;
    pats;
    blocks;
    goods = Array.map (fun b -> Logic_sim.simulate_block net b) blocks;
    arena = Atomic.make empty;
    append_lock = Mutex.create ();
  }

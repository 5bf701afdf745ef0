(* Sharded, bounded-memory memo of per-fault PO-diff triples, shared by
   every diagnosis phase that fault-simulates against one (netlist,
   pattern set) problem.  See the interface for the concurrency and
   determinism contract.  Each [Diag.Session] creates and owns exactly
   one instance; there is no registry, so a dropped session frees its
   cache with it. *)

let c_hits = Obs.counter "cache.hits"
let c_misses = Obs.counter "cache.misses"
let c_evictions = Obs.counter "cache.evictions"
let c_frozen_hits = Obs.counter "cache.frozen_hits"

(* Resident footprint of the packed frozen arena (slab + offset index +
   presence bitmap, in bytes); published as a counter delta at each
   freeze/load so `--stats` shows what the frozen tier actually holds. *)
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

(* Word budget across all shards of one instance.  Entries are int
   arrays, so the budget is an honest (if approximate) bound on the
   cache's major-heap footprint.  A constant: only tests override it,
   through [create ?budget_mb], to reach eviction on small circuits. *)
let default_budget_mb = 64

let nshards = 16

(* Per-entry accounting overhead: hashtable bucket + queue cell + header
   words, rounded generously so many tiny entries cannot blow past the
   budget through bookkeeping alone. *)
let entry_overhead = 16

type shard = {
  lock : Mutex.t;
  tbl : (int, int array) Hashtbl.t;
  order : int Queue.t; (* insertion order; each live key appears once *)
  mutable words : int;
}

(* Frozen tier: one contiguous packed arena.  [slab] holds every key's
   triples back to back ([encode_triples]); key [k]'s bytes are
   [slab[offs.(k) .. offs.(k+1))] and bit [k] of [present] says whether
   the key has an entry at all (a key can legitimately have zero
   triples — a fault that diffs nowhere — which the offsets alone
   cannot distinguish from absence).  Compared with the former
   [int array option array] (three boxed words per triple plus a header
   per key), the packed form costs a decode per probe but shrinks the
   resident footprint (~2.3x on rnd2k) — and, being
   position-independent bytes, it is exactly what the disk snapshot
   writes and reads. *)
type frozen = {
  slab : Bytes.t;
  offs : int array; (* nkeys + 1 byte offsets into [slab], monotone *)
  present : Bytes.t; (* nkeys-bit membership bitmap *)
  arena_bytes : int; (* slab + index + bitmap, the resident footprint *)
}

type t = {
  net : Netlist.t;
  pats : Pattern.t;
  blocks : Pattern.block array;
  goods : Logic_sim.net_values array;
  shards : shard array;
  budget_words : int;
  (* The packed arena above, published once by [freeze] (or adopted from
     disk by [load_frozen]).  Reads are a single [Atomic.get] plus a
     bounded decode of one key's byte range — no hashing, no mutex —
     and the publication through the atomic is what makes every byte
     written before the freeze safely visible to all domains (OCaml
     memory model: the freezing domain's writes happen-before the
     [Atomic.set], which happens-before any reader's [Atomic.get]).
     The arena is never written again; keys it lacks fall through to
     the mutable tier, which keeps accepting writes. *)
  frozen : frozen option Atomic.t;
}

let goods t = t.goods
let blocks t = t.blocks
let key ~site ~stuck = (2 * site) + Bool.to_int stuck
let shard_of t k = t.shards.(k mod nshards)
let cost triples = Array.length triples + entry_overhead
let num_keys t = 2 * Netlist.num_nets t.net

let is_frozen t = Atomic.get t.frozen <> None

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

let bit_set bytes k = Char.code (Bytes.unsafe_get bytes (k lsr 3)) land (1 lsl (k land 7)) <> 0

let bit_mark bytes k =
  Bytes.unsafe_set bytes (k lsr 3)
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bytes (k lsr 3)) lor (1 lsl (k land 7))))

let find_mutable t k =
  let s = shard_of t k in
  Mutex.lock s.lock;
  let r = Hashtbl.find_opt s.tbl k in
  Mutex.unlock s.lock;
  if Obs.enabled () then Obs.incr (match r with Some _ -> c_hits | None -> c_misses);
  r

(* --- Frozen-tier reads ------------------------------------------------ *)

(* Whether arena [fr] holds key [k]: the one membership test. *)
let holds fr k = k >= 0 && k < Array.length fr.offs - 1 && bit_set fr.present k

(* The one decoder: stream key [k]'s triples out of [fr] as [f block po
   word] calls, inverting [encode_triples].  [fr] must hold [k].  The
   deltas decode inline on a local position — one byte each in the
   canonical order, with [uvarint_at] only for the rare longer one —
   and the word is a single 8-byte load. *)
let walk fr k f =
  let bytes = fr.slab in
  let start = fr.offs.(k) in
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

let find t k =
  match Atomic.get t.frozen with
  | Some fr when holds fr k ->
    if Obs.enabled () then Obs.incr c_frozen_hits;
    let triples = Array.make (3 * uvarint_at fr.slab fr.offs.(k)) 0 in
    let i = ref 0 in
    walk fr k (fun bi oi w ->
        triples.(!i) <- bi;
        triples.(!i + 1) <- oi;
        triples.(!i + 2) <- w;
        i := !i + 3);
    Some triples
  | Some _ | None -> find_mutable t k

(* Decode-free probe + streaming decode: the explanation matrix replays
   a thousand-odd rows per build, and materialising an [int array] per
   frozen row (as [find] must) costs more than the shard mutex the
   frozen tier exists to avoid.  [probe] answers {e where} a key lives
   without touching the slab body; [iter_frozen] then streams the
   triples straight out of the arena into the caller's fill loop, no
   allocation at all.  Mutable-tier hits still hand out the boxed array
   — it is shared, not copied, and holding it keeps the row immune to a
   FIFO eviction between probe and replay. *)
type probe_result = Frozen | Warm of int array | Cold

let probe t k =
  match Atomic.get t.frozen with
  | Some fr when holds fr k ->
    if Obs.enabled () then Obs.incr c_frozen_hits;
    Frozen
  | Some _ | None -> (
    match find_mutable t k with Some a -> Warm a | None -> Cold)

let iter_frozen t k f =
  match Atomic.get t.frozen with
  | Some fr when holds fr k -> walk fr k f
  | Some _ | None -> invalid_arg "Sig_cache.iter_frozen: key not in the frozen tier"

let store t k triples =
  let s = shard_of t k in
  let budget = t.budget_words / nshards in
  Mutex.lock s.lock;
  (match Hashtbl.find_opt s.tbl k with
  | Some old ->
    (* Overwrite (same value recomputed by a racing domain): keep the
       key's queue position, swap the payload accounting. *)
    s.words <- s.words - cost old + cost triples;
    Hashtbl.replace s.tbl k triples
  | None ->
    Hashtbl.replace s.tbl k triples;
    Queue.push k s.order;
    s.words <- s.words + cost triples);
  let evicted = ref 0 in
  while s.words > budget && not (Queue.is_empty s.order) do
    let victim = Queue.pop s.order in
    match Hashtbl.find_opt s.tbl victim with
    | None -> ()
    | Some v ->
      Hashtbl.remove s.tbl victim;
      s.words <- s.words - cost v;
      incr evicted
  done;
  Mutex.unlock s.lock;
  if !evicted > 0 && Obs.enabled () then Obs.add c_evictions !evicted

(* Resident footprint of the published arena, in bytes (0 before a
   freeze). *)
let frozen_bytes t =
  match Atomic.get t.frozen with Some fr -> fr.arena_bytes | None -> 0

let word_bytes = Sys.word_size / 8

(* Publish a fully built arena, keeping the [cache.frozen_bytes]
   counter equal to the resident footprint across re-freezes. *)
let publish t fr =
  let old = frozen_bytes t in
  Atomic.set t.frozen (Some fr);
  if Obs.enabled () then Obs.add c_frozen_bytes (fr.arena_bytes - old)

(* Pack the mutable tier — plus [extra] entries that never went through
   it — into one arena and publish it.  [extra] exists for the prewarm
   sweep: routing a whole 100k-fault pool through the mutable tier
   first would trip its FIFO budget (evicting entries before the freeze
   could pack them) and briefly double the footprint; handing the sweep
   results straight to the packer keeps the full pool, which is the
   point of the 4-8x size reduction.  [extra] wins over the mutable
   tier on duplicate keys (values are pure functions of the key, so the
   choice is cosmetic).  Idempotent: a second freeze re-snapshots.
   Shards are locked one at a time, so stores racing with a freeze land
   either in the arena or in the mutable tier — both readable
   afterwards. *)
let freeze ?(extra = [||]) t =
  let nkeys = num_keys t in
  let staged : (int, int array) Hashtbl.t = Hashtbl.create 1024 in
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      Hashtbl.iter (fun k v -> if k >= 0 && k < nkeys then Hashtbl.replace staged k v) s.tbl;
      Mutex.unlock s.lock)
    t.shards;
  Array.iter
    (fun (k, v) -> if k >= 0 && k < nkeys then Hashtbl.replace staged k v)
    extra;
  let buf = Buffer.create 4096 in
  let offs = Array.make (nkeys + 1) 0 in
  let present = Bytes.make ((nkeys + 7) / 8) '\000' in
  for k = 0 to nkeys - 1 do
    offs.(k) <- Buffer.length buf;
    match Hashtbl.find_opt staged k with
    | None -> ()
    | Some triples ->
      bit_mark present k;
      encode_triples buf triples
  done;
  offs.(nkeys) <- Buffer.length buf;
  let slab = Buffer.to_bytes buf in
  publish t
    {
      slab;
      offs;
      present;
      arena_bytes = Bytes.length slab + ((nkeys + 1) * word_bytes) + Bytes.length present;
    }

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

   The packed index is the offset array delta-varint-coded (offsets are
   monotone, so deltas are the per-key byte lengths). *)
let save_frozen ~dir t =
  match Atomic.get t.frozen with
  | None -> false
  | Some fr ->
    let nkeys = Array.length fr.offs - 1 in
    let body = Buffer.create (Bytes.length fr.slab + nkeys + 64) in
    for k = 0 to nkeys - 1 do
      put_uvarint body (fr.offs.(k + 1) - fr.offs.(k))
    done;
    let index_len = Buffer.length body in
    Buffer.add_bytes body fr.present;
    Buffer.add_bytes body fr.slab;
    Store_file.save store_kind ~path:(store_path ~dir t) ~key:(problem_digest t)
      ~ints:[| nkeys; index_len; Bytes.length fr.slab |]
      (Buffer.contents body)

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
   starts. *)
let scan_key bytes start limit =
  let pos = ref start in
  let n = safe_uvarint bytes pos limit in
  if n < 0 || n > (limit - !pos) / 10 then raise Store_file.Invalid;
  for _ = 1 to n do
    ignore (safe_uvarint bytes pos limit : int);
    ignore (safe_uvarint bytes pos limit : int);
    if !pos + 8 > limit then raise Store_file.Invalid;
    pos := !pos + 8
  done;
  if !pos <> limit then raise Store_file.Invalid;
  n

(* Rebuild the arena from a body the envelope has checked, or raise. *)
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
  let slab = Bytes.sub body (index_len + bitmap_len) slab_len in
  (* Walk every key's triples once, bounds-checked: a snapshot that
     passed the digests but whose triples overrun their offset range
     must be rejected here, at load — the lock-free probe path decodes
     unchecked and must never see it.  An absent key with a non-empty
     range (or vice versa, a present key whose range cannot hold its
     count) is equally malformed. *)
  for k = 0 to nkeys - 1 do
    if bit_set present k then ignore (scan_key slab offs.(k) offs.(k + 1) : int)
    else if offs.(k) <> offs.(k + 1) then raise Store_file.Invalid
  done;
  {
    slab;
    offs;
    present;
    arena_bytes = slab_len + ((nkeys + 1) * word_bytes) + bitmap_len;
  }

let load_frozen ~dir t =
  match
    Store_file.load store_kind ~path:(store_path ~dir t) ~key:(problem_digest t) ~nints:3
      (decode_arena t)
  with
  | Some fr ->
    publish t fr;
    true
  | None -> false

(* --- Construction ---------------------------------------------------- *)

let create ?budget_mb net pats =
  let mb = match budget_mb with Some mb when mb >= 1 -> mb | _ -> default_budget_mb in
  let blocks = Array.of_list (Pattern.blocks pats) in
  {
    net;
    pats;
    blocks;
    goods = Array.map (fun b -> Logic_sim.simulate_block net b) blocks;
    shards =
      Array.init nshards (fun _ ->
          { lock = Mutex.create (); tbl = Hashtbl.create 256; order = Queue.create (); words = 0 });
    budget_words = mb * 1024 * 1024 / 8;
    frozen = Atomic.make None;
  }

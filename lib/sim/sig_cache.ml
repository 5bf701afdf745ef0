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

(* Default word budget across all shards of one instance.  Entries are
   int arrays, so the budget is an honest (if approximate) bound on the
   cache's major-heap footprint.  A plain constant: the MDD_SIG_CACHE_MB
   environment variable is resolved once at CLI startup into the session
   config ([Cli_common.session_config]), never read down here. *)
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

(* Frozen tier: one contiguous bit-packed arena.  [slab] holds every
   key's triples varint-delta-encoded back to back; key [k]'s bytes are
   [slab[offs.(k) .. offs.(k+1))] and bit [k] of [present] says whether
   the key has an entry at all (a key can legitimately have zero
   triples — a fault that diffs nowhere — which the offsets alone
   cannot distinguish from absence).  Compared with the former
   [int array option array] (three boxed words per triple plus a header
   per key), the packed form costs a decode per probe but shrinks the
   resident footprint 4-8x — and, being position-independent bytes, it
   is exactly what the disk snapshot writes and reads. *)
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
   tag-free bit pattern down regardless of sign, so diff words with bit
   62 set (a 63-pattern block whose last pattern diffs) round-trip
   exactly; at most ceil(63/7) = 9 bytes per value. *)
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

(* Decode one unsigned varint at [!pos], advancing it.  Bounds are the
   caller's job ([decode_key] walks a pre-validated range). *)
let get_uvarint bytes pos =
  let v = ref 0 and shift = ref 0 and cont = ref true in
  while !cont do
    let b = Char.code (Bytes.unsafe_get bytes !pos) in
    incr pos;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    cont := b land 0x80 <> 0
  done;
  !v

let get_svarint bytes pos =
  let u = get_uvarint bytes pos in
  (u lsr 1) lxor (-(u land 1))

(* One key's triples, encoded as [uvarint count] then per triple
   [svarint d_block; svarint d_po; uvarint word].  The block index is
   delta-coded against the previous triple's; the PO index is
   delta-coded within a block (reset at each block change), exploiting
   the canonical order — blocks ascending, POs ascending within a
   block — for one-byte deltas. *)
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
    put_uvarint buf w;
    prev_bi := bi;
    prev_oi := oi
  done

let decode_triples bytes pos =
  let n = get_uvarint bytes pos in
  let triples = Array.make (3 * n) 0 in
  let prev_bi = ref 0 and prev_oi = ref (-1) in
  for i = 0 to n - 1 do
    let dbi = get_svarint bytes pos in
    if dbi <> 0 then prev_oi := -1;
    let bi = !prev_bi + dbi in
    let oi = !prev_oi + get_svarint bytes pos in
    let w = get_uvarint bytes pos in
    triples.(3 * i) <- bi;
    triples.((3 * i) + 1) <- oi;
    triples.((3 * i) + 2) <- w;
    prev_bi := bi;
    prev_oi := oi
  done;
  triples

let bit_set bytes k = Char.code (Bytes.unsafe_get bytes (k lsr 3)) land (1 lsl (k land 7)) <> 0

let bit_mark bytes k =
  Bytes.unsafe_set bytes (k lsr 3)
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bytes (k lsr 3)) lor (1 lsl (k land 7))))

let probe_mutable t k =
  let s = shard_of t k in
  Mutex.lock s.lock;
  let r = Hashtbl.find_opt s.tbl k in
  Mutex.unlock s.lock;
  r

let find_mutable t k =
  let r = probe_mutable t k in
  if Obs.enabled () then Obs.incr (match r with Some _ -> c_hits | None -> c_misses);
  r

let frozen_probe t k =
  match Atomic.get t.frozen with
  | Some fr when k >= 0 && k < Array.length fr.offs - 1 && bit_set fr.present k ->
    let pos = ref fr.offs.(k) in
    Some (decode_triples fr.slab pos)
  | Some _ | None -> None

let find t k =
  match frozen_probe t k with
  | Some _ as r ->
    if Obs.enabled () then Obs.incr c_frozen_hits;
    r
  | None -> find_mutable t k

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
  | Some fr when k >= 0 && k < Array.length fr.offs - 1 && bit_set fr.present k ->
    if Obs.enabled () then Obs.incr c_frozen_hits;
    Frozen
  | Some _ | None -> (
    match find_mutable t k with Some a -> Warm a | None -> Cold)

let iter_frozen t k f =
  match Atomic.get t.frozen with
  | Some fr when k >= 0 && k < Array.length fr.offs - 1 && bit_set fr.present k ->
    let bytes = fr.slab in
    let pos = ref fr.offs.(k) in
    let n = get_uvarint bytes pos in
    let prev_bi = ref 0 and prev_oi = ref (-1) in
    for _ = 1 to n do
      let dbi = get_svarint bytes pos in
      if dbi <> 0 then prev_oi := -1;
      let bi = !prev_bi + dbi in
      let oi = !prev_oi + get_svarint bytes pos in
      let w = get_uvarint bytes pos in
      f bi oi w;
      prev_bi := bi;
      prev_oi := oi
    done
  | Some _ | None -> invalid_arg "Sig_cache.iter_frozen: key not in the frozen tier"

(* Counter-free probe for warm-up sweeps: [Session.prewarm] uses it to
   find the cold keys without charging the hit/miss split for probes no
   diagnosis made. *)
let peek t k =
  match frozen_probe t k with Some _ as r -> r | None -> probe_mutable t k

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
let encode_version = 1

let magic = "MDDSIGST"

(* Identity of the problem a snapshot answers for: a digest over the
   netlist structure (gate kinds, fanin adjacency, PO list — names are
   irrelevant to signatures) and the exact pattern set.  Anything that
   could change one cached triple changes this digest, so a loaded
   arena is byte-equivalent to a live sweep or it is rejected. *)
let problem_digest t =
  let buf = Buffer.create (1 lsl 16) in
  let add v = Buffer.add_int64_le buf (Int64.of_int v) in
  let add_arr a = Array.iter add a in
  add (Netlist.num_nets t.net);
  add (Netlist.num_pis t.net);
  add (Netlist.num_pos t.net);
  add_arr (Netlist.gate_codes t.net);
  add_arr (Netlist.fanin_offsets t.net);
  add_arr (Netlist.fanin_csr t.net);
  add_arr (Netlist.pos t.net);
  add (Pattern.count t.pats);
  add (Pattern.npis t.pats);
  Array.iter
    (fun (b : Pattern.block) ->
      add b.Pattern.base;
      add b.Pattern.width;
      add_arr b.Pattern.pi_words)
    t.blocks;
  Digest.bytes (Buffer.to_bytes buf)

(* One snapshot file per netlist structure: keyed on the structure-only
   digest, so re-running with a different pattern set or encode version
   finds the *same* file and rejects it via the header (an observable
   [store.rejects], then an overwrite on the next save) instead of
   silently accumulating stale siblings. *)
let store_path ~dir t =
  let buf = Buffer.create 4096 in
  let add v = Buffer.add_int64_le buf (Int64.of_int v) in
  add (Netlist.num_nets t.net);
  Array.iter add (Netlist.gate_codes t.net);
  Array.iter add (Netlist.fanin_csr t.net);
  let hex = Digest.to_hex (Digest.bytes (Buffer.to_bytes buf)) in
  Filename.concat dir ("sig-" ^ String.sub hex 0 12 ^ ".mddsig")

(* File layout, all integers little-endian int64:

     magic (8 bytes) | encode_version | problem digest (16 bytes)
     | content digest (16 bytes) | nkeys | index_len | slab_len
     | packed index (index_len bytes) | present bitmap | slab

   The packed index is the offset array delta-varint-coded (offsets are
   monotone, so deltas are the per-key byte lengths).  The content
   digest covers everything after the header — index, bitmap, slab —
   so a flipped byte anywhere in the body is as loudly rejected as a
   flipped header byte. *)
let header_len = 8 + 8 + 16 + 16 + (3 * 8)

let save_frozen ~dir t =
  match Atomic.get t.frozen with
  | None -> false
  | Some fr -> (
    let nkeys = Array.length fr.offs - 1 in
    let index_buf = Buffer.create (nkeys + 1) in
    for k = 0 to nkeys - 1 do
      put_uvarint index_buf (fr.offs.(k + 1) - fr.offs.(k))
    done;
    let index = Buffer.to_bytes index_buf in
    let body = Buffer.create (Bytes.length fr.slab + Bytes.length index + 64) in
    Buffer.add_bytes body index;
    Buffer.add_bytes body fr.present;
    Buffer.add_bytes body fr.slab;
    let body = Buffer.to_bytes body in
    let header = Bytes.create header_len in
    Bytes.blit_string magic 0 header 0 8;
    Bytes.set_int64_le header 8 (Int64.of_int encode_version);
    Bytes.blit_string (problem_digest t) 0 header 16 16;
    Bytes.blit_string (Digest.bytes body) 0 header 32 16;
    Bytes.set_int64_le header 48 (Int64.of_int nkeys);
    Bytes.set_int64_le header 56 (Int64.of_int (Bytes.length index));
    Bytes.set_int64_le header 64 (Int64.of_int (Bytes.length fr.slab));
    let path = store_path ~dir t in
    let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
    try
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_bytes oc header;
          output_bytes oc body);
      (* Atomic publication: a concurrent loader sees the old complete
         file or the new complete file, never a half-written one. *)
      Sys.rename tmp path;
      if Obs.enabled () then Obs.incr c_store_saves;
      true
    with Sys_error _ | Unix.Unix_error _ ->
      (try Sys.remove tmp with Sys_error _ -> ());
      false)

exception Invalid_snapshot

(* Bounds-checked varint read for untrusted bytes: the unsafe decoder
   above is only ever pointed at ranges this function has fully walked
   first. *)
let safe_uvarint bytes pos limit =
  let v = ref 0 and shift = ref 0 and cont = ref true in
  while !cont do
    (* [> 62]: a 9-byte group ends at shift 56; any continuation past
       shift 62 would need an [lsl] of 63+, unspecified on native ints. *)
    if !pos >= limit || !shift > 62 then raise Invalid_snapshot;
    let b = Char.code (Bytes.get bytes !pos) in
    incr pos;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    cont := b land 0x80 <> 0
  done;
  !v

(* Walk one key's encoding without allocating, returning its triple
   count; raises [Invalid_snapshot] unless the varint stream fills
   [start, limit) exactly.  The only guarantee the unchecked reader
   needs for memory safety is that each of its [3 * count] varint scans
   stops before [limit] — i.e. the range holds exactly [3 * count]
   terminator bytes (high bit clear) and ends on one.  So after
   decoding the leading count this just sums terminators, one add per
   byte with no branch, which keeps a multi-megabyte snapshot's
   load-time validation out of the restart path's way.  Overlong
   varints (shift past the word) merely yield unspecified {e values} —
   [lsl] by >= 64 is unspecified, not unsafe — and are reachable only
   by forging both digests, where the attacker chooses the values
   anyway; every downstream consumer indexes with bounds-checked
   reads. *)
let scan_key bytes start limit =
  let pos = ref start in
  let n = safe_uvarint bytes pos limit in
  if n < 0 || n > (limit - !pos) / 3 then raise Invalid_snapshot;
  let terms = ref 0 in
  for i = !pos to limit - 1 do
    terms := !terms + (1 - (Char.code (Bytes.unsafe_get bytes i) lsr 7))
  done;
  if !terms <> 3 * n then raise Invalid_snapshot;
  if limit > !pos && Char.code (Bytes.unsafe_get bytes (limit - 1)) land 0x80 <> 0
  then raise Invalid_snapshot;
  n

let load_frozen ~dir t =
  let path = store_path ~dir t in
  match
    if not (Sys.file_exists path) then None
    else
      let ic = open_in_bin path in
      Some
        (Fun.protect
           ~finally:(fun () -> close_in_noerr ic)
           (fun () -> really_input_string ic (in_channel_length ic)))
  with
  | None -> false (* a cold fleet, not a rejection *)
  | exception Sys_error _ -> false
  | Some raw -> (
    try
      let raw = Bytes.unsafe_of_string raw in
      if Bytes.length raw < header_len then raise Invalid_snapshot;
      if Bytes.sub_string raw 0 8 <> magic then raise Invalid_snapshot;
      if Bytes.get_int64_le raw 8 <> Int64.of_int encode_version then
        raise Invalid_snapshot;
      if Bytes.sub_string raw 16 16 <> problem_digest t then raise Invalid_snapshot;
      let nkeys = Int64.to_int (Bytes.get_int64_le raw 48) in
      let index_len = Int64.to_int (Bytes.get_int64_le raw 56) in
      let slab_len = Int64.to_int (Bytes.get_int64_le raw 64) in
      if nkeys <> num_keys t then raise Invalid_snapshot;
      let bitmap_len = (nkeys + 7) / 8 in
      if
        index_len < 0 || slab_len < 0
        || Bytes.length raw <> header_len + index_len + bitmap_len + slab_len
      then raise Invalid_snapshot;
      let body = Bytes.sub raw header_len (Bytes.length raw - header_len) in
      if Digest.bytes body <> Bytes.sub_string raw 32 16 then raise Invalid_snapshot;
      let pos = ref 0 in
      let offs = Array.make (nkeys + 1) 0 in
      for k = 0 to nkeys - 1 do
        let len = safe_uvarint body pos index_len in
        if len < 0 || offs.(k) > slab_len - len then raise Invalid_snapshot;
        offs.(k + 1) <- offs.(k) + len
      done;
      if !pos <> index_len || offs.(nkeys) <> slab_len then raise Invalid_snapshot;
      let present = Bytes.sub body index_len bitmap_len in
      let slab = Bytes.sub body (index_len + bitmap_len) slab_len in
      (* Walk every key's stream once, bounds-checked: a snapshot that
         passed the digests but whose varints overrun their offset
         range must be rejected here, at load — the lock-free probe
         path decodes unchecked and must never see it.  An absent key
         with a non-empty range (or vice versa, a present key whose
         range cannot hold its count) is equally malformed. *)
      for k = 0 to nkeys - 1 do
        if bit_set present k then ignore (scan_key slab offs.(k) offs.(k + 1) : int)
        else if offs.(k) <> offs.(k + 1) then raise Invalid_snapshot
      done;
      publish t
        {
          slab;
          offs;
          present;
          arena_bytes = Bytes.length slab + ((nkeys + 1) * word_bytes) + bitmap_len;
        };
      if Obs.enabled () then Obs.incr c_store_loads;
      true
    with Invalid_snapshot | Invalid_argument _ ->
      if Obs.enabled () then Obs.incr c_store_rejects;
      false)

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

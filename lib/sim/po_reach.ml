(* The CSR entries are 32-bit.  Every session computes its own [t]; on
   rnd2k the entries are 148,502 reachable (net, PO) pairs, 1.2 MB as
   an [int array].  A process that creates sessions in turn on one
   netlist (a volume drain, one session per lot) holds several dead
   ones until the major GC reclaims them, so the entry width shows in
   peak RSS. *)
type csr = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  po_csr : csr;
  po_off : int array; (* length num_nets + 1 *)
}

let word_bits = Bitvec.word_bits

let compute net =
  let n = Netlist.num_nets net in
  let npos = Netlist.num_pos net in
  let nwords = max 1 ((npos + word_bits - 1) / word_bits) in
  let masks = Array.make (n * nwords) 0 in
  Array.iteri
    (fun oi po ->
      let base = po * nwords in
      masks.(base + (oi / word_bits)) <-
        masks.(base + (oi / word_bits)) lor (1 lsl (oi mod word_bits)))
    (Netlist.pos net);
  (* Reverse topological sweep: a net reaches every PO its fanouts
     reach, plus itself when observed. *)
  let topo = Netlist.topo_order net in
  let fo = Netlist.fanout_csr net in
  let fo_off = Netlist.fanout_offsets net in
  for i = n - 1 downto 0 do
    let v = topo.(i) in
    let vbase = v * nwords in
    for e = fo_off.(v) to fo_off.(v + 1) - 1 do
      let fbase = fo.(e) * nwords in
      for w = 0 to nwords - 1 do
        masks.(vbase + w) <- masks.(vbase + w) lor masks.(fbase + w)
      done
    done
  done;
  let po_off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    let count = ref 0 in
    for w = 0 to nwords - 1 do
      count := !count + Bitvec.popcount_word masks.((v * nwords) + w)
    done;
    po_off.(v + 1) <- po_off.(v) + !count
  done;
  let po_csr = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout po_off.(n) in
  for v = 0 to n - 1 do
    let fill = ref po_off.(v) in
    for w = 0 to nwords - 1 do
      let bits = ref masks.((v * nwords) + w) in
      while !bits <> 0 do
        po_csr.{!fill} <- Int32.of_int ((w * word_bits) + Bitvec.ctz_word !bits);
        incr fill;
        bits := !bits land (!bits - 1)
      done
    done
  done;
  { po_csr; po_off }

let num_reachable t n = t.po_off.(n + 1) - t.po_off.(n)

let offsets t = t.po_off
let reachable_csr t = t.po_csr

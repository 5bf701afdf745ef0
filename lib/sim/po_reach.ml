type t = {
  nwords : int; (* mask words per net *)
  masks : int array; (* [net * nwords + w]: bit [oi mod 63] of word [oi / 63] *)
  counts : int array; (* per net: POs reachable *)
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
  let counts =
    Array.init n (fun v ->
        let c = ref 0 in
        for w = 0 to nwords - 1 do
          c := !c + Bitvec.popcount_word masks.((v * nwords) + w)
        done;
        !c)
  in
  { nwords; masks; counts }

let num_reachable t n = t.counts.(n)

let reachable_into t n dst =
  let k = ref 0 in
  for w = 0 to t.nwords - 1 do
    let bits = ref t.masks.((n * t.nwords) + w) in
    while !bits <> 0 do
      dst.(!k) <- (w * word_bits) + Bitvec.ctz_word !bits;
      incr k;
      bits := !bits land (!bits - 1)
    done
  done;
  !k

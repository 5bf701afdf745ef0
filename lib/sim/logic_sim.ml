type net_values = int array

let load_pis t block values =
  let pis = Netlist.pis t in
  Array.iteri (fun i pi -> values.(pi) <- block.Pattern.pi_words.(i)) pis

let simulate_block t block =
  let values = Array.make (Netlist.num_nets t) 0 in
  load_pis t block values;
  let topo = Netlist.topo_order t in
  let kinds = Netlist.kinds t in
  let csr = Netlist.fanin_csr t in
  let off = Netlist.fanin_offsets t in
  for i = 0 to Array.length topo - 1 do
    let n = topo.(i) in
    match kinds.(n) with
    | Gate.Input -> ()
    | kind -> values.(n) <- Gate.eval kind values csr off.(n) off.(n + 1)
  done;
  values

type override = {
  target : Netlist.net;
  behave :
    computed:int ->
    value_of:(Netlist.net -> int) ->
    driven_of:(Netlist.net -> int) ->
    base:int ->
    int;
}

let force net v =
  let word = if v then Logic.ones else 0 in
  { target = net; behave = (fun ~computed:_ ~value_of:_ ~driven_of:_ ~base:_ -> word) }

let max_sweeps = 8

let simulate_block_overlay t block overrides =
  match overrides with
  | [] -> simulate_block t block
  | _ ->
    let n = Netlist.num_nets t in
    let values = Array.make n 0 in
    (* Direct-indexed override slot per net (last write wins, as the
       Hashtbl.replace this replaces did): the sweep below runs over
       every net up to [max_sweeps] times, so a hash probe per visit
       was a third of the whole overlay simulation at 50k nets. *)
    let by_net = Array.make n None in
    List.iter (fun ov -> by_net.(ov.target) <- Some ov.behave) overrides;
    load_pis t block values;
    (* [driven] holds what each net's driver outputs this sweep, before
       overrides; for PIs that is the applied stimulus.  Resolved wire
       values live in [values]. *)
    let driven = Array.copy values in
    let value_of m = values.(m) in
    let driven_of m = driven.(m) in
    let topo = Netlist.topo_order t in
    let kinds = Netlist.kinds t in
    let csr = Netlist.fanin_csr t in
    let off = Netlist.fanin_offsets t in
    let changed = ref true in
    let sweeps = ref 0 in
    while !changed && !sweeps < max_sweeps do
      changed := false;
      incr sweeps;
      for i = 0 to Array.length topo - 1 do
        let m = topo.(i) in
        (match kinds.(m) with
         | Gate.Input -> ()
         | kind -> driven.(m) <- Gate.eval kind values csr off.(m) off.(m + 1));
        let v =
          match by_net.(m) with
          | None -> driven.(m)
          | Some behave ->
            behave ~computed:driven.(m) ~value_of ~driven_of ~base:block.Pattern.base
        in
        if v <> values.(m) then begin
          values.(m) <- v;
          changed := true
        end
      done
    done;
    values

type responses = Bitvec.t array

let collect_block t values block resp =
  let pos = Netlist.pos t in
  Array.iteri
    (fun oi po ->
      let w = values.(po) in
      for k = 0 to block.Pattern.width - 1 do
        Bitvec.set resp.(oi) (block.Pattern.base + k) (w lsr k land 1 = 1)
      done)
    pos

let responses_with sim t pats =
  let resp =
    Array.init (Netlist.num_pos t) (fun _ -> Bitvec.create (Pattern.count pats))
  in
  List.iter
    (fun block ->
      let values = sim block in
      collect_block t values block resp)
    (Pattern.blocks pats);
  resp

let responses t pats = responses_with (fun b -> simulate_block t b) t pats

let responses_overlay t pats overrides =
  responses_with (fun b -> simulate_block_overlay t b overrides) t pats

(* Word-level comparator: one XOR pass per backing word, OR-folded
   across outputs; per-pattern PO lists are only materialized for the
   (rare) words that actually differ somewhere. *)
let diff_outputs expected observed =
  let npos = Array.length expected in
  if npos <> Array.length observed then
    invalid_arg "Logic_sim.diff_outputs: PO count mismatch";
  if npos = 0 then []
  else begin
    let nw = Bitvec.num_words expected.(0) in
    let out = ref [] in
    for wi = 0 to nw - 1 do
      let any = ref 0 in
      for oi = 0 to npos - 1 do
        any := !any lor (Bitvec.word expected.(oi) wi lxor Bitvec.word observed.(oi) wi)
      done;
      Logic.iter_bits !any (fun k ->
          let p = (wi * Bitvec.word_bits) + k in
          let bad = ref [] in
          for oi = npos - 1 downto 0 do
            let diff = Bitvec.word expected.(oi) wi lxor Bitvec.word observed.(oi) wi in
            if diff lsr k land 1 = 1 then bad := oi :: !bad
          done;
          out := (p, !bad) :: !out)
    done;
    List.rev !out
  end

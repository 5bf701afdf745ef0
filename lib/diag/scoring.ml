type score = {
  explained : int;
  missed : int;
  spurious_fail : int;
  spurious_pass : int;
}

let total_observations s = s.explained + s.missed

(* Missing an observed failure weighs far more than predicting an extra
   one: a stuck-line multiplet standing in for a pattern-dependent defect
   (open, intermittent, bridge) over-predicts by construction, and that
   must not be cheaper than explaining nothing. *)
let penalty s = (10 * s.missed) + (2 * s.spurious_fail) + s.spurious_pass

let perfect s = s.missed = 0 && s.spurious_fail = 0 && s.spurious_pass = 0

let compare_score a b =
  match compare (penalty a) (penalty b) with
  | 0 -> (
    match compare (a.spurious_fail + a.spurious_pass) (b.spurious_fail + b.spurious_pass) with
    | 0 -> compare b.explained a.explained
    | c -> c)
  | c -> c

let c_evaluations = Obs.counter "scoring.evaluations"
let c_blocks_scored = Obs.counter "scoring.blocks_scored"

let overlay_of_multiplet faults =
  let sites = List.sort_uniq compare (List.map (fun f -> f.Fault_list.site) faults) in
  List.map
    (fun site ->
      let polarities =
        List.sort_uniq compare
          (List.filter_map
             (fun f -> if f.Fault_list.site = site then Some f.Fault_list.stuck else None)
             faults)
      in
      match polarities with
      | [ v ] -> Logic_sim.force site v
      | _ ->
        {
          Logic_sim.target = site;
          behave = (fun ~computed ~value_of:_ ~driven_of:_ ~base:_ -> lnot computed);
        })
    sites

(* Batched multiplet scoring (the PPSFP pass, DESIGN.md §6a): seed every
   member of the multiplet into one delta-propagation sweep instead of
   resimulating the whole netlist under an overlay.  Identical by
   construction to scoring an overlay resimulation of
   [overlay_of_multiplet faults]: pins read no other net and the netlist
   is feedback-free, so one levelized pass is already the overlay
   simulator's fixpoint, and the emitted diff words equal the
   good/overlay difference words on every PO.

   A scorer is the scratch of one diagnosis — a simulator plus batch
   slabs over the session's blocks and goods, the datalog's observed
   words, and the cone-marking arrays of the bridge scorer.  The
   refinement loop, the aggressor screens and bridge validation score
   hundreds of hypotheses against it; the diagnosis that built it is
   its only holder. *)
type t = {
  net : Netlist.t;
  nblocks : int;
  goods : Logic_sim.net_values array;
  batch : Fault_sim.batch;
  words : Datalog.words;
  npos : int;
  mutable flip : int array; (* the aggressor screens' flip triples, grown on demand *)
  mark : int array; (* per net: stamp of the last cone that reached it *)
  stack : int array; (* cone-walk stack *)
  mutable epoch : int;
}

let create session dlog =
  let net = Session.netlist session in
  let blocks = Session.blocks session in
  let goods = Session.goods session in
  let sim = Fault_sim.create ~reach:(Session.reach session) net in
  let nets = max 1 (Netlist.num_nets net) in
  {
    net;
    nblocks = Array.length blocks;
    goods;
    batch = Fault_sim.prepare_batch sim ~blocks ~goods;
    flip = [||];
    words = Datalog.observed_words dlog blocks;
    npos = Datalog.npos dlog;
    mark = Array.make nets 0;
    stack = Array.make nets 0;
    epoch = 0;
  }

(* Score the diff words of one sweep.  Each [w] is already masked to its
   block's live width; unemitted (block, PO) words predict nothing, so
   every observation they carry is missed: total minus explained needs
   no scan. *)
let score_words (words : Datalog.words) npos sweep =
  let explained = ref 0 and spurious_fail = ref 0 and spurious_pass = ref 0 in
  let s_obs = words.obs and s_fail = words.fail in
  sweep (fun bi oi w ->
      let obs = s_obs.((bi * npos) + oi) in
      let fm = s_fail.(bi) in
      explained := !explained + Logic.popcount (w land obs);
      spurious_fail := !spurious_fail + Logic.popcount (w land lnot obs land fm);
      (* Observed bits only occur on failing patterns, so
         [w land lnot fm] is exactly predicted-and-not-observed on
         passing patterns. *)
      spurious_pass := !spurious_pass + Logic.popcount (w land lnot fm));
  {
    explained = !explained;
    missed = words.total - !explained;
    spurious_fail = !spurious_fail;
    spurious_pass = !spurious_pass;
  }

let score_triples words ~npos triples =
  score_words words npos (fun f ->
      let i = ref 0 in
      while !i < Array.length triples do
        f triples.(!i) triples.(!i + 1) triples.(!i + 2);
        i := !i + 3
      done)

let count_evaluation sc =
  if Obs.enabled () then begin
    Obs.incr c_evaluations;
    Obs.add c_blocks_scored sc.nblocks
  end

let site_pairs faults = List.map (fun f -> (f.Fault_list.site, f.Fault_list.stuck)) faults

let evaluate_multiplet sc faults =
  count_evaluation sc;
  let s =
    score_words sc.words sc.npos
      (Fault_sim.batch_multiplet_diffs sc.batch ~faults:(site_pairs faults))
  in
  Fault_sim.publish_stats (Fault_sim.batch_sim sc.batch);
  s

(* Aggressor screens (DESIGN.md §10).  "Victim follows [a]" injects
   [good(victim) lxor good(a)] at the victim alone.  Pattern lanes are
   independent and the netlist is feedback-free, so a lane whose delta
   bit is 0 stays good and a lane whose bit is 1 carries exactly the
   all-lanes flip: every diff word of the injection is its block's
   delta masked onto the flip sweep's word.  One sweep per victim, then
   popcounts per aggressor. *)
let screen_aggressors sc ~victim aggressors =
  if aggressors = [] then []
  else begin
    let n = ref 0 in
    Fault_sim.batch_po_diffs_delta sc.batch ~site:victim
      ~deltas:(Array.make sc.nblocks Logic.ones)
      (fun bi oi w ->
        if !n + 3 > Array.length sc.flip then begin
          let grown = Array.make ((2 * Array.length sc.flip) + 48) 0 in
          Array.blit sc.flip 0 grown 0 !n;
          sc.flip <- grown
        end;
        sc.flip.(!n) <- bi;
        sc.flip.(!n + 1) <- oi;
        sc.flip.(!n + 2) <- w;
        n := !n + 3);
    Fault_sim.publish_stats (Fault_sim.batch_sim sc.batch);
    let flip = sc.flip and n = !n and goods = sc.goods in
    List.map
      (fun a ->
        score_words sc.words sc.npos (fun f ->
            let i = ref 0 in
            while !i < n do
              let bi = flip.(!i) in
              let g = goods.(bi) in
              f bi flip.(!i + 1) ((g.(victim) lxor g.(a)) land flip.(!i + 2));
              i := !i + 3
            done))
      aggressors
  end

(* --- Bridge hypotheses on the multi-site sweep (DESIGN.md §6a) ------- *)

let c_bridge_hypotheses = Obs.counter "bridges.hypotheses"
let c_bridge_feedback = Obs.counter "bridges.feedback"

(* Stamp [from]'s transitive fanout (or, given the fanin CSR, fanin)
   cone, [from] itself excluded.  Each net is pushed at most once per
   stamp, so the stack never outgrows the netlist. *)
let mark_cone sc ~csr ~off ~stamp from =
  let mark = sc.mark and stack = sc.stack in
  let top = ref 0 in
  let push_next m =
    for e = off.(m) to off.(m + 1) - 1 do
      let n = csr.(e) in
      if mark.(n) <> stamp then begin
        mark.(n) <- stamp;
        stack.(!top) <- n;
        incr top
      end
    done
  in
  push_next from;
  while !top > 0 do
    decr top;
    push_next stack.(!top)
  done

type relation = Apart | Downstream | Upstream

let is_wired = function Defect.Dominant -> false | Defect.Wired_and | Defect.Wired_or -> true

(* One lane of an overlay bridge that feeds back on itself: the back
   edge is read from the previous sweep, so each pattern bit iterates a
   1-bit map [x -> mux x on0 on1] (0, 1, identity or inversion) from 0,
   and the overlay stops after [Logic_sim.max_sweeps] sweeps having
   applied it [max_sweeps - 1] times.  Converged lanes sit at a fixpoint
   of the map, oscillating ones wherever the cap leaves them — the same
   word either way.  [pre] maps the back-edge word to the map's input
   (identity for dominant, the wired operator with the fixed side
   otherwise). *)
let mux x on0 on1 = (x land on1) lor (lnot x land on0)

let settle ~pre on0 on1 =
  let y = ref 0 in
  for _ = 1 to Logic_sim.max_sweeps - 1 do
    y := mux (pre !y) on0 on1
  done;
  !y

let evaluate_bridges sc ~rest ~victim hyps =
  if hyps = [] then []
  else begin
    let net = sc.net and b = sc.batch and nb = sc.nblocks in
    let faults = site_pairs rest in
    sc.epoch <- sc.epoch + 2;
    let down = sc.epoch - 1 and up = sc.epoch in
    mark_cone sc ~csr:(Netlist.fanout_csr net) ~off:(Netlist.fanout_offsets net)
      ~stamp:down victim;
    if List.exists (fun (_, k) -> is_wired k) hyps then
      mark_cone sc ~csr:(Netlist.fanin_csr net) ~off:(Netlist.fanin_offsets net) ~stamp:up
        victim;
    let relation a =
      if a = victim then invalid_arg "Scoring.evaluate_bridges: aggressor = victim"
      else if sc.mark.(a) = down then Downstream
      else if sc.mark.(a) = up then Upstream
      else Apart
    in
    let sweep ?held () = Fault_sim.batch_multiplet_diffs ?held b ~faults (fun _ _ _ -> ()) in
    let read f n = Array.init nb (fun block -> f b ~net:n ~block) in
    let const w = Array.make nb w in
    let aggressors = List.sort_uniq compare (List.map fst hyps) in
    let reads_of ags =
      List.map (fun a -> (a, (read Fault_sim.batch_value a, read Fault_sim.batch_driven a))) ags
    in
    (* Rest-of-multiplet pass: everything a bridge reads where it cannot
       feed back — the aggressor's resolved word (dominant), and both
       sides' driven words (wired). *)
    sweep ();
    let dv = read Fault_sim.batch_driven victim in
    let base = reads_of aggressors in
    (* Aggressors in the victim's fanout cone: their response to the
       victim held at 0 and at 1, i.e. the lane-wise map of the back
       edge. *)
    let downs = List.filter (fun a -> relation a = Downstream) aggressors in
    let victim_held w =
      if downs = [] then []
      else begin
        sweep ~held:[ (victim, const w) ] ();
        reads_of downs
      end
    in
    let held0 = victim_held 0 in
    let held1 = victim_held Logic.ones in
    (* Wired aggressors upstream of the victim: the victim's driven
       response to the aggressor held at 0 and at 1. *)
    let ups =
      List.filter
        (fun a -> relation a = Upstream && List.exists (fun (x, k) -> x = a && is_wired k) hyps)
        aggressors
    in
    let aggressor_held a w =
      sweep ~held:[ (a, const w) ] ();
      read Fault_sim.batch_driven victim
    in
    let up_maps =
      List.map
        (fun a ->
          let h0 = aggressor_held a 0 in
          (a, (h0, aggressor_held a Logic.ones)))
        ups
    in
    let held_of (a, kind) =
      let op x y = if kind = Defect.Wired_and then x land y else x lor y in
      let word f = Array.init nb f in
      let value_a, da = List.assoc a base in
      match (kind, relation a) with
      | Defect.Dominant, (Apart | Upstream) -> [ (victim, value_a) ]
      | Defect.Dominant, Downstream ->
        let f0, _ = List.assoc a held0 and f1, _ = List.assoc a held1 in
        [ (victim, word (fun bi -> settle ~pre:Fun.id f0.(bi) f1.(bi))) ]
      | (Defect.Wired_and | Defect.Wired_or), Apart ->
        let w = word (fun bi -> op dv.(bi) da.(bi)) in
        [ (victim, w); (a, w) ]
      | (Defect.Wired_and | Defect.Wired_or), Downstream ->
        (* Back edge: the aggressor's driven word, read by the victim. *)
        let _, g0 = List.assoc a held0 and _, g1 = List.assoc a held1 in
        let v =
          word (fun bi -> op dv.(bi) (settle ~pre:(op dv.(bi)) g0.(bi) g1.(bi)))
        in
        [ (victim, v); (a, word (fun bi -> op (mux v.(bi) g0.(bi) g1.(bi)) dv.(bi))) ]
      | (Defect.Wired_and | Defect.Wired_or), Upstream ->
        (* Back edge: the victim's driven word, read by the aggressor. *)
        let h0, h1 = List.assoc a up_maps in
        let av =
          word (fun bi -> op da.(bi) (settle ~pre:(op da.(bi)) h0.(bi) h1.(bi)))
        in
        [ (victim, word (fun bi -> op (mux av.(bi) h0.(bi) h1.(bi)) da.(bi))); (a, av) ]
    in
    let scores =
      List.map
        (fun ((a, kind) as h) ->
          count_evaluation sc;
          if Obs.enabled () then begin
            Obs.incr c_bridge_hypotheses;
            match relation a with
            | Downstream -> Obs.incr c_bridge_feedback
            | Upstream when is_wired kind -> Obs.incr c_bridge_feedback
            | Upstream | Apart -> ()
          end;
          score_words sc.words sc.npos
            (Fault_sim.batch_multiplet_diffs ~held:(held_of h) b ~faults))
        hyps
    in
    Fault_sim.publish_stats (Fault_sim.batch_sim b);
    scores
  end

let pp ppf s =
  Format.fprintf ppf "explained %d, missed %d, spurious %d+%d (penalty %d)" s.explained
    s.missed s.spurious_fail s.spurious_pass (penalty s)

type score = {
  explained : int;
  missed : int;
  spurious_fail : int;
  spurious_pass : int;
}

(* Missing an observed failure weighs far more than predicting an extra
   one: a stuck-line multiplet standing in for a pattern-dependent defect
   (open, intermittent, bridge) over-predicts by construction, and that
   must not be cheaper than explaining nothing. *)
let penalty s = (10 * s.missed) + (2 * s.spurious_fail) + s.spurious_pass

let compare_score a b =
  match compare (penalty a) (penalty b) with
  | 0 -> (
    match compare (a.spurious_fail + a.spurious_pass) (b.spurious_fail + b.spurious_pass) with
    | 0 -> compare b.explained a.explained
    | c -> c)
  | c -> c

let c_evaluations = Obs.counter "scoring.evaluations"
let c_blocks_scored = Obs.counter "scoring.blocks_scored"

(* The pin rule, written once: a site with no polarity in [faults] is
   free, one holds it at its stuck word, both flip it ([lnot computed],
   the byzantine surrogate) — two contradictory stuck pins on one net
   would otherwise shadow each other.  A site listed twice with one
   polarity is still a plain stuck-at. *)
let pin_of faults site =
  match
    List.sort_uniq compare
      (List.filter_map
         (fun f -> if f.Fault_list.site = site then Some f.Fault_list.stuck else None)
         faults)
  with
  | [] -> Fault_sim.Free
  | [ v ] -> Fault_sim.Stuck v
  | _ -> Fault_sim.Flip

let sites faults = List.sort_uniq compare (List.map (fun f -> f.Fault_list.site) faults)
let pins faults = List.map (fun site -> (site, pin_of faults site)) (sites faults)

let overlay_of_multiplet faults =
  List.map
    (function
      | site, Fault_sim.Stuck v -> Logic_sim.force site v
      | site, _ ->
        {
          Logic_sim.target = site;
          behave = (fun ~computed ~value_of:_ ~driven_of:_ ~base:_ -> lnot computed);
        })
    (pins faults)

(* Batched multiplet scoring (the PPSFP pass, DESIGN.md §6a): seed every
   member of the multiplet into one delta-propagation sweep instead of
   resimulating the whole netlist under an overlay.  Identical by
   construction to scoring an overlay resimulation of
   [overlay_of_multiplet faults]: pins read no other net and the netlist
   is feedback-free, so one levelized pass is already the overlay
   simulator's fixpoint, and the emitted diff words equal the
   good/overlay difference words on every PO.

   A scorer is the scratch of one diagnosis — a simulator reading the
   session's good machine, the datalog's observed words, the held base's
   diff words and score, and the cone-marking arrays of the bridge
   scorer.  The refinement loop, the aggressor
   screens and bridge validation score hundreds of hypotheses against
   it; the diagnosis that built it is its only holder. *)
type t = {
  net : Netlist.t;
  nblocks : int;
  good : Fault_sim.good; (* the session's good machine *)
  sim : Fault_sim.t;
  words : Datalog.words;
  npos : int;
  mutable flip : int array;
      (* Flip-sweep words, grown on demand.  The aggressor screens keep
         per diff word its block and the word split into its explained,
         spurious-fail and spurious-pass parts; bridge validation keeps
         the victim flip sweep's (block, slot, change word) triples. *)
  bdiff : int array; (* [bi * npos + oi]: the held base's masked diff words *)
  mutable base : (Fault_list.fault list * score) option; (* the held base *)
  mark : int array; (* per net: stamp of the last cone that reached it *)
  stack : int array; (* cone-walk stack *)
  mutable epoch : int;
}

let create session dlog =
  let net = Session.netlist session in
  let blocks = Session.blocks session in
  let nets = max 1 (Netlist.num_nets net) in
  {
    net;
    nblocks = Array.length blocks;
    good = Session.good session;
    sim = Session.simulator session;
    flip = [||];
    words = Datalog.observed_words dlog blocks;
    npos = Datalog.npos dlog;
    bdiff = Array.make (Array.length blocks * Datalog.npos dlog) 0;
    base = None;
    mark = Array.make nets 0;
    stack = Array.make nets 0;
    epoch = 0;
  }

(* Score the diff words of one sweep.  Each [w] is already masked to its
   block's live width; unemitted (block, PO) words predict nothing, so
   every observation they carry is missed: total minus explained needs
   no scan. *)
(* Room for [k <= 64] more words after the first [n] of the flip
   buffer. *)
let reserve sc n k =
  if n + k > Array.length sc.flip then begin
    let grown = Array.make ((2 * Array.length sc.flip) + 64) 0 in
    Array.blit sc.flip 0 grown 0 n;
    sc.flip <- grown
  end

let score_words (words : Datalog.words) npos sweep =
  let explained = ref 0 and spurious_fail = ref 0 and spurious_pass = ref 0 in
  let s_obs = words.obs and s_fail = words.fail in
  sweep (fun bi oi w ->
      let obs = s_obs.((bi * npos) + oi) in
      let fm = s_fail.(bi) in
      explained := !explained + Bitvec.popcount_word (w land obs);
      spurious_fail := !spurious_fail + Bitvec.popcount_word (w land lnot obs land fm);
      (* Observed bits only occur on failing patterns, so
         [w land lnot fm] is exactly predicted-and-not-observed on
         passing patterns. *)
      spurious_pass := !spurious_pass + Bitvec.popcount_word (w land lnot fm));
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

(* --- One-change scoring against a held base (DESIGN.md §6a) ---------- *)

(* The base sweep's diff words are kept, so a change sweep's word [c]
   at (bi, oi) turns that PO's diff from [old] into [old lxor c]: the
   base score is corrected on exactly the words that changed.  Held
   again, the base needs no sweep, but the simulator must drop the last
   change sweep so that it reads the base machine. *)
let hold sc faults =
  match sc.base with
  | Some (held, s) when held = faults ->
    Fault_sim.sweep sc.sim [] (fun _ _ _ -> ());
    s
  | Some _ | None ->
    let bdiff = sc.bdiff and npos = sc.npos in
    Array.fill bdiff 0 (Array.length bdiff) 0;
    let s =
      score_words sc.words npos (fun f ->
          Fault_sim.hold sc.sim (pins faults) (fun bi oi w ->
              bdiff.((bi * npos) + oi) <- w;
              f bi oi w))
    in
    Fault_sim.publish_stats sc.sim;
    sc.base <- Some (faults, s);
    s

let evaluate_multiplet sc faults =
  let s = hold sc faults in
  count_evaluation sc;
  s

let corrected sc (base : score) sweep =
  let explained = ref base.explained in
  let spurious_fail = ref base.spurious_fail and spurious_pass = ref base.spurious_pass in
  let bdiff = sc.bdiff and s_obs = sc.words.obs and s_fail = sc.words.fail in
  sweep (fun bi i c ->
      let old = bdiff.(i) in
      let w = old lxor c in
      let obs = s_obs.(i) and fm = s_fail.(bi) in
      explained :=
        !explained
        + Bitvec.popcount_word (w land obs)
        - Bitvec.popcount_word (old land obs);
      spurious_fail :=
        !spurious_fail + Bitvec.popcount_word (w land lnot obs land fm)
        - Bitvec.popcount_word (old land lnot obs land fm);
      spurious_pass :=
        !spurious_pass
        + Bitvec.popcount_word (w land lnot fm)
        - Bitvec.popcount_word (old land lnot fm));
  {
    explained = !explained;
    missed = sc.words.total - !explained;
    spurious_fail = !spurious_fail;
    spurious_pass = !spurious_pass;
  }

let score_change sc base changes =
  let npos = sc.npos in
  corrected sc base (fun f ->
      Fault_sim.sweep sc.sim changes (fun bi oi c -> f bi ((bi * npos) + oi) c))

(* The sites whose pin differs between the base and the trial, each with
   the pin the trial gives it. *)
let repins base trial =
  List.filter_map
    (fun site ->
      match pin_of trial site with
      | p when p = pin_of base site -> None
      | p -> Some (site, p))
    (sites (base @ trial))

let evaluate_trial sc trial =
  match sc.base with
  | None -> invalid_arg "Scoring.evaluate_trial: no base held"
  | Some (base, base_score) ->
    count_evaluation sc;
    let s =
      match repins base trial with
      | [] -> base_score
      | changes -> score_change sc base_score changes
    in
    Fault_sim.publish_stats sc.sim;
    s

(* Aggressor screens (DESIGN.md §10).  "Victim follows [a]" injects
   [good(victim) lxor good(a)] at the victim alone.  Pattern lanes are
   independent and the netlist is feedback-free, so a lane whose delta
   bit is 0 stays good and a lane whose bit is 1 carries exactly the
   all-lanes flip: every diff word of the injection is its block's
   delta masked onto the flip sweep's word.  One sweep per victim, from
   the empty base, then popcounts per aggressor. *)
let screen_aggressors sc ~victim aggressors =
  if aggressors = [] then []
  else begin
    ignore (hold sc [] : score);
    let n = ref 0 in
    let s_obs = sc.words.obs and s_fail = sc.words.fail and npos = sc.npos in
    let good = sc.good in
    (* Each flip word is split once, here, into the parts the three
       score components count; an aggressor's delta masks all three. *)
    let flipped =
      Array.init sc.nblocks (fun bi -> lnot (Fault_sim.good_word good victim bi))
    in
    Fault_sim.sweep sc.sim [ (victim, Fault_sim.Held flipped) ]
      (fun bi oi w ->
        reserve sc !n 4;
        let obs = s_obs.((bi * npos) + oi) and fm = s_fail.(bi) in
        sc.flip.(!n) <- bi;
        sc.flip.(!n + 1) <- w land obs;
        sc.flip.(!n + 2) <- w land lnot obs land fm;
        sc.flip.(!n + 3) <- w land lnot fm;
        n := !n + 4);
    Fault_sim.publish_stats sc.sim;
    let flip = sc.flip and n = !n and total = sc.words.total in
    List.map
      (fun a ->
        let explained = ref 0 and spurious_fail = ref 0 and spurious_pass = ref 0 in
        let i = ref 0 in
        while !i < n do
          let bi = flip.(!i) in
          let d = Fault_sim.good_word good victim bi lxor Fault_sim.good_word good a bi in
          explained := !explained + Bitvec.popcount_word (d land flip.(!i + 1));
          spurious_fail := !spurious_fail + Bitvec.popcount_word (d land flip.(!i + 2));
          spurious_pass := !spurious_pass + Bitvec.popcount_word (d land flip.(!i + 3));
          i := !i + 4
        done;
        {
          explained = !explained;
          missed = total - !explained;
          spurious_fail = !spurious_fail;
          spurious_pass = !spurious_pass;
        })
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
    let net = sc.net and b = sc.sim and nb = sc.nblocks in
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
    let held_pins held = List.map (fun (s, w) -> (s, Fault_sim.Held w)) held in
    let read f n = Array.init nb (fun block -> f b ~net:n ~block) in
    let driven n = Fault_sim.batch_driven b ~net:n in
    let aggressors = List.sort_uniq compare (List.map fst hyps) in
    let reads_of ags =
      List.map (fun a -> (a, (read Fault_sim.batch_value a, driven a))) ags
    in
    (* Rest-of-multiplet pass, held as the callout's base: everything a
       bridge reads where it cannot feed back — the aggressor's
       resolved word (dominant), and both sides' driven words (wired).
       Every sweep below is a change sweep on top of it. *)
    let rest_score = hold sc rest in
    let dv = driven victim in
    let bv = read Fault_sim.batch_value victim in
    let base = reads_of aggressors in
    (* Lane by lane, the machine with one site held at a word [w] is the
       base's where [w] agrees with the site's base word, and where it
       does not, that of the change sweep flipping the site on every
       live lane (DESIGN.md §10).  One flip sweep per held site thus
       answers every [w]: [under site_base base_w flip_w w] reads a word
       of that machine off the base's and the flip sweep's. *)
    let under site_base base_w flip_w w =
      Array.init nb (fun bi ->
          base_w.(bi) lxor ((w lxor site_base.(bi)) land (flip_w.(bi) lxor base_w.(bi))))
    in
    let flip site site_base f =
      Fault_sim.sweep b [ (site, Fault_sim.Held (Array.map lnot site_base)) ] f
    in
    (* The victim's flip sweep, its PO change words kept as
       (block, slot, word) triples: a dominant hypothesis holds the
       victim alone, so its change words are these masked by the lanes
       its held word changes. *)
    let n = ref 0 in
    flip victim bv (fun bi oi c ->
        reserve sc !n 3;
        sc.flip.(!n) <- bi;
        sc.flip.(!n + 1) <- (bi * sc.npos) + oi;
        sc.flip.(!n + 2) <- c;
        n := !n + 3);
    let nflip = !n in
    let dominant word =
      let flip = sc.flip and lanes = Array.init nb (fun bi -> word.(bi) lxor bv.(bi)) in
      corrected sc rest_score (fun f ->
          let t = ref 0 in
          while !t < nflip do
            let bi = flip.(!t) in
            let c = lanes.(bi) land flip.(!t + 2) in
            if c <> 0 then f bi flip.(!t + 1) c;
            t := !t + 3
          done)
    in
    (* Aggressors in the victim's fanout cone: their resolved and driven
       words with the victim held at 0 and at 1, i.e. the lane-wise map
       of the back edge. *)
    let down_flips = reads_of (List.filter (fun a -> relation a = Downstream) aggressors) in
    let victim_held a w =
      let value_a, da = List.assoc a base and fv, fd = List.assoc a down_flips in
      (under bv value_a fv w, under bv da fd w)
    in
    (* Wired aggressors upstream of the victim: the victim's driven
       response to the aggressor held at 0 and at 1. *)
    let up_maps =
      List.filter_map
        (fun a ->
          if relation a = Upstream && List.exists (fun (x, k) -> x = a && is_wired k) hyps
          then begin
            let value_a, _ = List.assoc a base in
            flip a value_a (fun _ _ _ -> ());
            let fdv = driven victim in
            Some (a, (under value_a dv fdv 0, under value_a dv fdv Logic.ones))
          end
          else None)
        aggressors
    in
    let score_of (a, kind) =
      let op x y = if kind = Defect.Wired_and then x land y else x lor y in
      let word f = Array.init nb f in
      let held l = score_change sc rest_score (held_pins l) in
      let value_a, da = List.assoc a base in
      match (kind, relation a) with
      | Defect.Dominant, (Apart | Upstream) -> dominant value_a
      | Defect.Dominant, Downstream ->
        let f0, _ = victim_held a 0 and f1, _ = victim_held a Logic.ones in
        dominant (word (fun bi -> settle ~pre:Fun.id f0.(bi) f1.(bi)))
      | (Defect.Wired_and | Defect.Wired_or), Apart ->
        let w = word (fun bi -> op dv.(bi) da.(bi)) in
        held [ (victim, w); (a, w) ]
      | (Defect.Wired_and | Defect.Wired_or), Downstream ->
        (* Back edge: the aggressor's driven word, read by the victim. *)
        let _, g0 = victim_held a 0 and _, g1 = victim_held a Logic.ones in
        let v =
          word (fun bi -> op dv.(bi) (settle ~pre:(op dv.(bi)) g0.(bi) g1.(bi)))
        in
        held
          [ (victim, v); (a, word (fun bi -> op (mux v.(bi) g0.(bi) g1.(bi)) dv.(bi))) ]
      | (Defect.Wired_and | Defect.Wired_or), Upstream ->
        (* Back edge: the victim's driven word, read by the aggressor. *)
        let h0, h1 = List.assoc a up_maps in
        let av =
          word (fun bi -> op da.(bi) (settle ~pre:(op da.(bi)) h0.(bi) h1.(bi)))
        in
        held
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
          score_of h)
        hyps
    in
    Fault_sim.publish_stats b;
    scores
  end

let pp ppf s =
  Format.fprintf ppf "explained %d, missed %d, spurious %d+%d (penalty %d)" s.explained
    s.missed s.spurious_fail s.spurious_pass (penalty s)

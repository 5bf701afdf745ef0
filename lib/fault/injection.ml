type kind_mix = { stuck : int; bridge : int; open_ : int; intermittent : int }

let default_mix = { stuck = 30; bridge = 30; open_ = 25; intermittent = 15 }

let mix_of_string = function
  | "stuck" -> Some { stuck = 1; bridge = 0; open_ = 0; intermittent = 0 }
  | "bridge" -> Some { stuck = 0; bridge = 1; open_ = 0; intermittent = 0 }
  | "open" -> Some { stuck = 0; bridge = 0; open_ = 1; intermittent = 0 }
  | "intermittent" -> Some { stuck = 0; bridge = 0; open_ = 0; intermittent = 1 }
  | "mixed" -> Some default_mix
  | _ -> None

let non_pi_nets t =
  Array.of_list
    (List.filter (fun n -> not (Netlist.is_pi t n)) (List.init (Netlist.num_nets t) Fun.id))

let draw_kind rng mix =
  let total = mix.stuck + mix.bridge + mix.open_ + mix.intermittent in
  assert (total > 0);
  let r = Rng.int rng total in
  if r < mix.stuck then `Stuck
  else if r < mix.stuck + mix.bridge then `Bridge
  else if r < mix.stuck + mix.bridge + mix.open_ then `Open
  else `Intermittent

(* A companion net for [site] that is not structurally downstream of it
   (keeps injected behaviour acyclic) and not [site] itself.  With a
   layout, companions come from the site's physical neighbourhood. *)
let companion ?layout rng t sites site =
  let reach = Netlist.fanout_reach t site in
  let pool =
    match layout with
    | None -> sites
    | Some (placement, radius) ->
      Array.of_list (Layout.neighbors placement ~radius site)
  in
  if Array.length pool = 0 then None
  else begin
    let rec draw attempts =
      if attempts = 0 then None
      else
        let c = Rng.pick rng pool in
        if c <> site && (not reach.(c)) && not (Netlist.is_pi t c) then Some c
        else draw (attempts - 1)
    in
    draw 64
  end

let rec random_defect ?layout rng t mix =
  let sites = non_pi_nets t in
  assert (Array.length sites > 0);
  match draw_kind rng mix with
  | `Stuck -> Defect.Stuck (Rng.pick rng sites, Rng.bool rng)
  | `Bridge -> (
    let victim = Rng.pick rng sites in
    match companion ?layout rng t sites victim with
    | None -> random_defect ?layout rng t mix
    | Some aggressor ->
      let kind =
        match Rng.int rng 3 with
        | 0 -> Defect.Dominant
        | 1 -> Defect.Wired_and
        | _ -> Defect.Wired_or
      in
      Defect.Bridge { victim; aggressor; kind })
  | `Open -> (
    let site = Rng.pick rng sites in
    match companion ?layout rng t sites site with
    | None -> random_defect ?layout rng t mix
    | Some cond -> Defect.Open_cond { site; cond; cond_v = Rng.bool rng })
  | `Intermittent ->
    Defect.Intermittent
      {
        site = Rng.pick rng sites;
        salt = Rng.int rng 1_000_000;
        rate_pct = 25 + Rng.int rng 50;
      }

let capacity t = Array.length (non_pi_nets t)

let random_defects ?layout rng t mix k =
  (* An unlucky prefix can deadlock a tiny circuit (e.g. wired bridges
     consuming every non-PI net), so a stalled multiplet is redrawn from
     scratch rather than retried forever. *)
  let rec attempt restarts =
    if restarts = 0 then
      invalid_arg "Injection.random_defects: cannot place disjoint defects"
    else begin
      let taken = Hashtbl.create 16 in
      let disjoint d =
        List.for_all (fun n -> not (Hashtbl.mem taken n)) (Defect.overridden d)
      in
      let rec draw acc n guard =
        if n = 0 then Some (List.rev acc)
        else if guard = 0 then None
        else
          let d = random_defect ?layout rng t mix in
          if disjoint d then begin
            List.iter (fun net -> Hashtbl.add taken net ()) (Defect.overridden d);
            draw (d :: acc) (n - 1) guard
          end
          else draw acc n (guard - 1)
      in
      match draw [] k 500 with
      | Some defects -> defects
      | None -> attempt (restarts - 1)
    end
  in
  attempt 100

let observed_responses t pats defects =
  Logic_sim.responses_overlay t pats (Defect.overlay_all defects)

let contributing t pats defects =
  let full = observed_responses t pats defects in
  List.filter
    (fun d ->
      let rest = List.filter (fun d' -> d' != d) defects in
      let without = observed_responses t pats rest in
      not (Array.for_all2 Bitvec.equal full without))
    defects

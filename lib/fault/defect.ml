type bridge_kind = Dominant | Wired_and | Wired_or

type t =
  | Stuck of Netlist.net * bool
  | Bridge of { victim : Netlist.net; aggressor : Netlist.net; kind : bridge_kind }
  | Open_cond of { site : Netlist.net; cond : Netlist.net; cond_v : bool }
  | Intermittent of { site : Netlist.net; salt : int; rate_pct : int }

let nets = function
  | Stuck (n, _) -> [ n ]
  | Bridge { victim; aggressor; _ } -> [ victim; aggressor ]
  | Open_cond { site; cond; _ } -> [ site; cond ]
  | Intermittent { site; _ } -> [ site ]

let overridden = function
  | Stuck (n, _) -> [ n ]
  | Bridge { victim; aggressor; kind = Wired_and | Wired_or } -> [ victim; aggressor ]
  | Bridge { victim; _ } -> [ victim ]
  | Open_cond { site; _ } -> [ site ]
  | Intermittent { site; _ } -> [ site ]

(* SplitMix-style avalanche over (salt, pattern index); only the decision
   bit distribution matters, not cryptographic quality. *)
let flip_bit ~salt ~pattern ~rate_pct =
  let z = Int64.of_int (((salt * 0x9E3779B9) lxor (pattern * 0x85EBCA6B)) land max_int) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.logxor z (Int64.shift_right_logical z 27) in
  let r = Int64.to_int (Int64.logand z 0x7FFFFFFFL) in
  r mod 100 < rate_pct

let intermittent_word ~salt ~base ~rate_pct =
  let w = ref 0 in
  for k = Bitvec.word_bits - 1 downto 0 do
    w := (!w lsl 1) lor if flip_bit ~salt ~pattern:(base + k) ~rate_pct then 1 else 0
  done;
  !w

let overlay = function
  | Stuck (n, v) -> [ Logic_sim.force n v ]
  | Bridge { victim; aggressor; kind = Dominant } ->
    (* The victim takes the value the aggressor wire carries (the
       aggressor may itself be rewritten by another defect). *)
    [
      {
        Logic_sim.target = victim;
        behave = (fun ~computed:_ ~value_of ~driven_of:_ ~base:_ -> value_of aggressor);
      };
    ]
  | Bridge { victim; aggressor; kind = Wired_and } ->
    (* Both wires resolve to the AND of the two *driven* values; reading
       the other side's resolved value would feed the bridge back on
       itself and latch both nets. *)
    let anded other =
     fun ~computed ~value_of:_ ~driven_of ~base:_ -> computed land driven_of other
    in
    [
      { Logic_sim.target = victim; behave = anded aggressor };
      { Logic_sim.target = aggressor; behave = anded victim };
    ]
  | Bridge { victim; aggressor; kind = Wired_or } ->
    let ored other =
     fun ~computed ~value_of:_ ~driven_of ~base:_ -> computed lor driven_of other
    in
    [
      { Logic_sim.target = victim; behave = ored aggressor };
      { Logic_sim.target = aggressor; behave = ored victim };
    ]
  | Open_cond { site; cond; cond_v } ->
    [
      {
        Logic_sim.target = site;
        behave =
          (fun ~computed ~value_of ~driven_of:_ ~base:_ ->
            let cw = value_of cond in
            let mask = if cond_v then cw else lnot cw in
            computed lxor mask);
      };
    ]
  | Intermittent { site; salt; rate_pct } ->
    [
      {
        Logic_sim.target = site;
        behave =
          (fun ~computed ~value_of:_ ~driven_of:_ ~base ->
            computed lxor intermittent_word ~salt ~base ~rate_pct);
      };
    ]

let overlay_all defects = List.concat_map overlay defects

let describe net = function
  | Stuck (n, v) -> Printf.sprintf "%s stuck-at-%d" (Netlist.name net n) (Bool.to_int v)
  | Bridge { victim; aggressor; kind } ->
    let k =
      match kind with
      | Dominant -> "dominant"
      | Wired_and -> "wired-AND"
      | Wired_or -> "wired-OR"
    in
    Printf.sprintf "%s bridge %s<-%s" k (Netlist.name net victim) (Netlist.name net aggressor)
  | Open_cond { site; cond; cond_v } ->
    Printf.sprintf "open at %s (flips when %s=%d)" (Netlist.name net site)
      (Netlist.name net cond) (Bool.to_int cond_v)
  | Intermittent { site; rate_pct; _ } ->
    Printf.sprintf "intermittent at %s (%d%%)" (Netlist.name net site) rate_pct

(** Injection campaigns: the controlled experiments every table is built
    from.

    One {e trial} = draw [multiplicity] defects, simulate the faulty
    machine over the circuit's test set, hand the datalog to the
    diagnosis methods under test, and score each against the ground
    truth.  Trials whose defect combination produces no failing pattern
    are redrawn (a tester would never send a passing part to diagnosis);
    the redraw count is reported. *)

type methods = {
  run_noassume : bool;
  run_slat : bool;
  run_single : bool;
}

val all_methods : methods
val only_noassume : methods
val classification_only : methods
(** No diagnosis at all — for Table 2, which only needs the SLAT
    fraction. *)

type outcome = {
  defects : Defect.t list;
  num_failing : int;  (** Failing patterns in the datalog. *)
  slat_fraction : float;  (** Fraction of failing patterns that are SLAT. *)
  noassume : Metrics.quality option;
  slat : Metrics.quality option;
  single : Metrics.quality option;
}

type t = {
  circuit : string;
  outcomes : outcome list;
  redraws : int;  (** Defect draws discarded for producing no failures. *)
}

val flow_report : detections:int -> Netlist.t -> Tpg.report
(** The campaign ATPG run at a detection target ({!Tpg.generate}'s
    [detections]), not memoised: Figure 6's N-detect sets.  At
    [~detections:1] it returns {!test_report}'s patterns, without the
    origin. *)

val test_report : Netlist.t -> Tpg.report
(** The campaign ATPG run for a circuit (canonical seed, bounded PODEM
    backtracking).  Memoised per netlist — Table 1, the campaigns and the
    runtime figure all share one run per circuit.  Its patterns carry
    {!atpg_origin}. *)

val atpg_origin : string
(** The {!Pattern.origin} of every set {!test_report} generates: the
    flow's seed, random budget and backtrack limit and
    {!Tpg.flow_version}.  With the netlist's {!Netlist.source} it keys
    the design image that stores the set, so a process can find the set
    before it has one. *)

val test_set : Netlist.t -> Pattern.t
(** [(test_report net).patterns].  A stored set is read back by
    {!Design.session}, from the design image's test-set section. *)

val failing_die :
  ?mix:Injection.kind_mix ->
  ?layout:Layout.t * float ->
  Rng.t ->
  Netlist.t ->
  Pattern.t ->
  expected:Logic_sim.responses ->
  multiplicity:int ->
  (Defect.t list * Datalog.t) option * int
(** One failing die: draw [multiplicity] defects from [rng]
    ({!Injection.random_defects} under [mix], default
    {!Injection.default_mix}, and [layout]), simulate them over the
    pattern set and redraw until the datalog against [expected] (the
    good responses to the set) has a failing pattern, at most 50 draws.
    Returns the defects as drawn with their datalog, or [None] when no
    draw failed, and the number of draws discarded.  The stream is read
    in the same order by every caller, so a seed names the same dies in
    a campaign, a table and a regression gate. *)

val run :
  ?methods:methods ->
  ?config:Noassume.config ->
  ?mix:Injection.kind_mix ->
  ?patterns:Pattern.t ->
  ?layout:Layout.t * float ->
  ?domains:int ->
  name:string ->
  Netlist.t ->
  multiplicity:int ->
  trials:int ->
  seed:int ->
  t
(** Run [trials] trials.  [patterns] overrides {!test_set} (used by the
    test-set-size sweep); [config] is every trial's diagnosis options,
    covering backend included; [layout] constrains
    injected bridges/opens to physically adjacent nets (the layout
    ablation — pass the same placement in [config.layout] to let
    diagnosis use it too).

    Trials are independent and run across [domains] OCaml domains
    ({!Parallel}'s default when omitted).  Per-trial defect draws come
    from generators split in trial order before any trial starts, so the
    outcome list is identical for every domain count.  When several
    trials are in flight each trial's own simulation kernels run inline
    ({!Parallel}'s nesting rule); a batch of width 1 leaves them at the
    process width. *)

val mean_slat_fraction : t -> float

val qualities : t -> (outcome -> Metrics.quality option) -> Metrics.quality list

(** Benchmark circuit generators.

    The evaluation of the original paper runs on the ISCAS-85/89 suites.
    Those netlists are not redistributable inside this repository, so the
    experiments run on (a) the genuine c17 netlist, which is tiny and
    public, and (b) parameterised synthetic circuits — arithmetic,
    datapath, decode and random-logic blocks — that reproduce the
    structural features diagnosis cares about (reconvergent fanout,
    overlapping output cones, depth) at comparable gate counts.  Every
    generator is deterministic. *)

val c17 : unit -> Netlist.t
(** The ISCAS-85 c17 benchmark: 5 PI, 2 PO, 6 NAND gates. *)

val ripple_adder : int -> Netlist.t
(** [ripple_adder w]: [w]-bit ripple-carry adder, inputs [a*], [b*],
    [cin]; outputs [s*], [cout]. *)

val multiplier : int -> Netlist.t
(** [multiplier w]: [w]x[w] array multiplier with ripple reduction,
    outputs [2w] product bits.  Test-only outside the suite, like every
    family below that no tool names: [test_generators] checks its
    function at small widths, and [test_tpg] and [test_podem] pin PODEM
    runs on widths the suite lacks, so the tests build it directly. *)

val alu : int -> Netlist.t
(** [alu w]: [w]-bit ALU computing AND / OR / XOR / ADD selected by two
    control inputs, plus a zero flag. *)

val parity : int -> Netlist.t
(** [parity w]: balanced XOR tree over [w] inputs, one output.
    Test-only, as {!multiplier}. *)

val decoder : int -> Netlist.t
(** [decoder n]: n-to-2^n line decoder with enable.  Test-only, as
    {!multiplier}. *)

val comparator : int -> Netlist.t
(** [comparator w]: [w]-bit magnitude comparator, outputs [eq], [lt],
    [gt].  Test-only, as {!multiplier}. *)

val mux_tree : int -> Netlist.t
(** [mux_tree k]: 2^k-to-1 multiplexer built from 2-to-1 muxes.
    Test-only, as {!multiplier}. *)

val majority : int -> Netlist.t
(** [majority w] ([w] odd): majority voter via full-adder population
    count and comparison; classic TMR voter structure.  Test-only, as
    {!multiplier}. *)

val carry_lookahead_adder : int -> Netlist.t
(** [carry_lookahead_adder w]: [w]-bit adder with 4-bit lookahead groups
    (generate/propagate logic) — same function as {!ripple_adder}, very
    different structure (shallow, heavily reconvergent), useful for
    structure-sensitivity experiments.  Test-only, as {!multiplier}. *)

val barrel_shifter : int -> Netlist.t
(** [barrel_shifter k]: [2^k]-bit logical left shifter built from [k]
    mux stages; inputs [d*] and shift amount [s*].  Test-only, as
    {!multiplier}. *)

val priority_encoder : int -> Netlist.t
(** [priority_encoder n]: [2^n]-input priority encoder (highest set input
    wins) with a valid flag.  Test-only, as {!multiplier}. *)

val gray_decoder : int -> Netlist.t
(** [gray_decoder w]: Gray-to-binary converter (XOR prefix chain).
    Test-only, as {!multiplier}. *)

val crc_step : int -> Netlist.t
(** [crc_step w]: one combinational step of a CRC with a dense
    polynomial: next state = shifted state XOR (feedback AND taps) XOR
    data bit; [w] state bits, inputs [s*] and [d].  Test-only, as
    {!multiplier}. *)

val random_logic : gates:int -> pis:int -> pos:int -> seed:int -> Netlist.t
(** Random reconvergent DAG: each gate draws a kind and 1–4 distinct
    fanins from earlier nets with locality bias.  Dead logic is avoided by
    marking as additional outputs, in net order after the [pos]
    requested ones, the gates that would otherwise be unread.  Test-only
    outside the suite (rnd1k and rnd2k are two of these): the
    random-design properties draw their circuits from it. *)

val suite : unit -> (string * Netlist.t) list
(** The benchmark suite used by every table in `bench/main.exe`, ordered
    roughly by gate count: c17, par16, dec4, gray8, add8, penc4, crc16,
    cmp16, cla16, mux5, maj9, bshift4, alu8, add32, mult8, rnd1k,
    rnd2k.  Builds every circuit not built yet. *)

val suite_names : string list
(** The names of {!suite}, in the same order, without building any
    circuit. *)

val find_suite : string -> Netlist.t option
(** Look a suite circuit up by name, building only that circuit (once
    per process: it is the same value {!suite} returns). *)

val tiers : unit -> (string * Netlist.t Lazy.t) list
(** Large netlist tiers for the kernel-scaling benchmarks: rnd10k and
    rnd50k (10k / 50k random reconvergent gates, whose would-be-dead
    logic is folded into XOR compaction trees merged into the declared
    outputs, so the PO count stays ISCAS-like instead of growing with
    the circuit as {!random_logic}'s would), plus every vendored
    ISCAS-85-style [.bench] circuit found under [bench/circuits]
    (override the directory with MDD_CIRCUITS_DIR), parsed through
    {!Bench_io}.  Not part of {!suite} — the paper tables iterate the
    suite, and the tiers' size (and their use of random rather than
    deterministic ATPG patterns) would distort those runs.  Lazy: force
    only the tier you benchmark. *)

val find_tier : string -> Netlist.t option
(** Look a tier circuit up by name, forcing its construction. *)

(** {1 Source keys} *)

val source_key : string -> string option
(** The {!Netlist.source} of the suite or tier circuit [name] — what
    {!find_suite} or {!find_tier} would attach — without building it:
    the generator key for a suite or generated tier, the file's
    {!Bench_io.source_key} for a vendored one.  [None] for an unknown
    name or an unreadable vendored file. *)

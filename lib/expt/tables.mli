(** Regeneration of every table and figure of the evaluation
    (reconstructed suite — see DESIGN.md for the paper-text mismatch
    notice and EXPERIMENTS.md for expected shapes).

    Each function is deterministic in [seed] and returns a rendered
    {!Table.t}; `bench/main.exe` is a thin driver over this module. *)

val campaign_circuits : unit -> (string * Netlist.t) list
(** The subset of the generator suite used for injection campaigns
    (small/medium circuits; the large ones appear in Table 1 and the
    runtime figure). *)

val table1 : unit -> Table.t
(** Circuit characteristics: PIs, POs, gates, depth, collapsed faults,
    ATPG pattern count and stuck-at coverage. *)

val table2 : trials:int -> seed:int -> Table.t
(** SLAT-pattern fraction vs defect multiplicity 1–5 per circuit. *)

val table3 : trials:int -> seed:int -> Table.t
(** Proposed method: diagnosability / success rate / resolution vs
    multiplicity 1–5. *)

val table4 : trials:int -> seed:int -> Table.t
(** Proposed vs SLAT-based vs single-fault baselines, multiplicity 1–5,
    aggregated over the campaign circuits. *)

val table5 : trials:int -> seed:int -> Table.t
(** Per-defect-type diagnosability and resolution at multiplicity 2. *)

val table6 : trials:int -> seed:int -> Table.t
(** Extension: fault-dictionary baseline — storage footprint (full
    response vs pass/fail), build time, and accuracy at multiplicity 1
    and 3 against the proposed method. *)

val fig1 : trials:int -> Table.t
(** Diagnosis runtime vs circuit size (gate count), mean wall-clock per
    trial. *)

val fig2 : trials:int -> seed:int -> Table.t
(** Diagnosability curves, proposed vs SLAT, multiplicity 1–8, with an
    ASCII rendering of the two series. *)

val fig3 : trials:int -> seed:int -> Table.t
(** Histogram of per-trial resolution at multiplicity 3. *)

val fig4 : trials:int -> seed:int -> Table.t
(** Diagnosability vs test-set size (random sets of 16..256 patterns). *)

val fig6 : trials:int -> seed:int -> Table.t
(** Extension: diagnosability as the test set moves from 1-detect to
    N-detect (each fault detected by N distinct patterns). *)

val ablation_layout : trials:int -> seed:int -> Table.t
(** Extension: bridges injected between physically adjacent nets
    (synthetic placement); diagnosis with vs without layout knowledge in
    aggressor inference. *)

val ablation_exact : trials:int -> seed:int -> Table.t
(** Extension: how often the greedy multiplet is already
    minimum-cardinality, against the exact branch-and-bound cover. *)

val ablation_validate : trials:int -> seed:int -> Table.t
(** Refinement loop on vs off. *)

val ablation_tiebreak : trials:int -> seed:int -> Table.t
(** Misprediction tie-break on vs off. *)

val ablation_perpattern : trials:int -> seed:int -> Table.t
(** Per-output vs per-pattern (SLAT-style) explanation units. *)

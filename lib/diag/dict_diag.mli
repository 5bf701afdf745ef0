(** Baseline 3: fault-dictionary diagnosis.

    The classic pre-computed alternative to effect-cause analysis: before
    any die fails, simulate every collapsed stuck-at fault against the
    production test set and store its response; diagnosis is then a
    dictionary lookup.  Two standard flavours:

    - the {b full-response} dictionary stores, per fault, which output
      fails on which pattern (complete signatures — large but precise);
    - the {b pass/fail} dictionary stores one bit per (fault, pattern)
      (much smaller, correspondingly coarser).

    Both inherit the single-fault assumption, and their storage grows
    with |faults| x |patterns| (x |outputs| for full-response) — the
    costs the no-assumption effect-cause method avoids.  The extension
    table (Table 6) quantifies exactly that trade. *)

type flavour = Full_response | Pass_fail

type t
(** A built dictionary, bound to the circuit and test set it was
    simulated with. *)

val build_session : flavour -> Session.t -> t
(** Build against a warm session: entry signatures resolve through
    {!Session.fault_triples} (cache replay + batched miss fill). *)

val num_entries : t -> int
(** Collapsed faults stored. *)

val size_bits : t -> int
(** Storage footprint of the response data in bits — the number the
    dictionary-size tables of the literature report. *)

val diagnose : t -> Datalog.t -> Single_diag.result
(** Look the datalog up and rank the entries with {!Single_diag.rank},
    so the callouts are
    {!Single_diag.callout_nets}.  Pass/fail dictionaries score at
    pattern granularity (they cannot see which output failed);
    full-response dictionaries score per observation, like
    {!Single_diag}. *)

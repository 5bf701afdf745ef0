(** Physical-defect behaviours at the gate-netlist level.

    The paper's premise is that real (multiple) defects do not behave
    like any single fault model: bridges follow an aggressor, resistive
    opens fail only under some side conditions, marginal defects are
    intermittent.  This module is the behavioural vocabulary of the
    injection campaign; each defect compiles to an overlay on the
    {!Logic_sim} evaluation, so any mix of them is simulated
    *simultaneously* — including their interactions (masking /
    unmasking), which is exactly what breaks SLAT-style assumptions. *)

type bridge_kind =
  | Dominant  (** victim takes the aggressor's value *)
  | Wired_and  (** both nets take the AND of the two driven values *)
  | Wired_or  (** both nets take the OR of the two driven values *)

type t =
  | Stuck of Netlist.net * bool
      (** Net shorted to a rail: classic stuck-at behaviour. *)
  | Bridge of { victim : Netlist.net; aggressor : Netlist.net; kind : bridge_kind }
      (** Resistive short between two signal nets. *)
  | Open_cond of { site : Netlist.net; cond : Netlist.net; cond_v : bool }
      (** Resistive open: the site's value is corrupted (flipped) only on
          patterns where the condition net carries [cond_v] — a
          pattern-dependent, non-stuck behaviour. *)
  | Intermittent of { site : Netlist.net; salt : int; rate_pct : int }
      (** Marginal defect: the site flips on a pseudo-random
          [rate_pct]% of patterns, keyed deterministically by
          [salt] and the pattern index. *)

val nets : t -> Netlist.net list
(** The nets physically involved — the ground truth a diagnosis callout
    is scored against. *)

val overridden : t -> Netlist.net list
(** The nets whose simulated value the defect rewrites (a subset of
    {!nets}: a dominant bridge only rewrites the victim; a wired bridge
    rewrites both).  Two defects in one injection must not override the
    same net, or their behaviours would silently shadow each other. *)

val overlay_all : t list -> Logic_sim.override list
(** Compile to simulation overrides, each defect's in turn; simulating
    with this list is true multiple-defect simulation. *)

val describe : Netlist.t -> t -> string
(** Human-readable one-liner using net names. *)

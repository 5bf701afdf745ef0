(** Deterministic, splittable pseudo-random number generator.

    The whole repository runs on this PRNG rather than [Stdlib.Random] so
    that every experiment, test and campaign is reproducible from a single
    integer seed.  The implementation is SplitMix64 (Steele et al., OOPSLA
    2014): a tiny, high-quality, splittable generator whose split operation
    lets independent campaign arms draw independent streams. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator.  Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t].  Streams
    produced by the parent after the split and by the child do not
    overlap in practice. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); [bound] must be positive. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p].  Test-only, kept for
    test case generation: the random datalogs of [test_kernel_oracle]
    draw their failing patterns with it, so a different draw would
    change which cases run. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

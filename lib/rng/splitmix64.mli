(** SplitMix64 pseudo-random generator (Steele, Lea, Flood 2014).

    Used both as a standalone generator and to seed {!Xoshiro} state from a
    single 64-bit seed.  All experiments in this repository derive their
    randomness from explicit seeds through this module, so every run is
    reproducible. *)

type t

(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)
val create : int64 -> t

(** [copy t] is an independent generator with the same current state. *)
val copy : t -> t

(** [next t] advances the state and returns the next 64-bit output. *)
val next : t -> int64

(** [next_int63 t] is [next t] truncated to OCaml's non-negative [int]
    range, i.e. uniform on [0, 2^62). *)
val next_int63 : t -> int

(** The golden-ratio increment the state advances by on every [next]. *)
val golden_gamma : int64

(** [mix z] is the output function: [next t] advances the state by
    {!golden_gamma} and returns [mix] of the new state, so the [k]-th
    output of [create s] is [mix (s + k * golden_gamma)].  Inlined, it
    runs on unboxed values and allocates nothing. *)
val mix : int64 -> int64

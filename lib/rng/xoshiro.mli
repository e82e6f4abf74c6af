(** xoshiro256** generator (Blackman, Vigna 2018).

    The workhorse generator of the repository: fast, 256-bit state, and
    splittable via {!jump} into streams that are independent for all
    practical purposes.  Seeded from a single [int64] through SplitMix64 as
    the authors recommend. *)

type t

(** [create seed] seeds the 256-bit state from [seed] via SplitMix64. *)
val create : int64 -> t

(** [copy t] is an independent generator with the same current state. *)
val copy : t -> t

(** [next t] returns the next 64-bit output. *)
val next : t -> int64

(** [next_int63 t] is uniform on [0, 2^62): the top 62 bits of
    [next t].  Allocates nothing. *)
val next_int63 : t -> int

(** [next_bits53 t] is the top 53 bits of [next t], uniform on
    [0, 2^53) — the mantissa draw behind {!Sample.float_unit}.
    Allocates nothing. *)
val next_bits53 : t -> int

(** [jump t] advances [t] by 2^128 steps in place; used to carve
    non-overlapping streams out of one seed. *)
val jump : t -> unit

(** [split t] returns a fresh generator positioned 2^128 steps ahead of
    [t], and advances [t] there too, so repeated calls yield disjoint
    streams. *)
val split : t -> t

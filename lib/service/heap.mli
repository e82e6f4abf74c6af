(** A deterministic binary min-heap keyed by [(time, insertion order)].

    Both the lease table (expiry queue) and the churn driver (event
    queue) need a priority queue whose pop order is a pure function of
    the push sequence: ties on [time] are broken by insertion order, so
    two runs with the same inputs drain in byte-identical order. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:float -> 'a -> unit

val pop : 'a t -> (float * 'a) option
(** Smallest [(time, seq)] first; [None] when empty. *)

val min_time : 'a t -> float
(** The smallest [time] in the heap; [infinity] when empty. *)

val stamp : 'a t -> int
(** The sequence number the next {!push} will receive: every entry
    already in the heap has a smaller one. *)

val due : 'a t -> now:float -> before:int -> bool
(** Whether the smallest entry has [time <= now] and was pushed before
    stamp [before].  [due t ~now ~before:(stamp t)] asks whether
    anything is due at all; a stamp taken earlier excludes what was
    pushed since.  Allocates nothing. *)

val take : 'a t -> 'a
(** Remove the smallest entry and return its value, without the option
    and pair {!pop} allocates.  Raises [Invalid_argument] when empty. *)

val size : 'a t -> int

val is_empty : 'a t -> bool

val compact : 'a t -> live:(time:float -> 'a -> bool) -> unit
(** Drop every entry for which [live] is false and re-heapify in place.
    Surviving entries keep their [(time, seq)] keys, so their relative
    pop order is exactly what it would have been without compaction.
    Owners using lazy deletion (the lease table) call this when dead
    entries dominate, bounding heap memory under long churn; the
    backing array is shrunk when mostly empty. *)

(** The centralized renaming specification — the whole correctness
    argument of every backend, in one state machine small enough to
    read in a sitting.

    State: which session holds which name, plus per-session
    invoked/crashed flags.  The safety invariants are enabledness
    conditions on {!apply}:

    - {b uniqueness}: [Granted] is disabled while another session holds
      the name;
    - {b namespace-bound}: [Granted]/[Claimed] are disabled outside
      [0, namespace);
    - {b session ids}: [Granted] is disabled for a negative session id
      ([session-out-of-range]).  Every backend numbers its sessions
      from 0 (pids, minted ids), and the holder table marks a free
      name with -1, so no valid id can be mistaken for a free slot;
    - {b fencing}: [Released]/[Reclaimed]/[Claimed] are disabled unless
      the named session actually holds the name — an {e accepted}
      operation on a name the session does not hold is exactly the
      fenced-off ghost the lease layer must reject;
    - {b invocation} (one-shot mode): [Granted] is disabled unless the
      session has invoked and holds nothing — and [Reclaimed]/[Shed]
      clear the invocation, so a post-reclaim re-grant to a session
      that never re-invoked is inexplicable no matter which backend
      produced it.  A [Crashed] session abandons its live claims: the
      names it held stay consumed (granting one to another session is
      still inexplicable, and the recovered session re-discovering its
      old name is a stutter), but the recovered re-run may win a fresh
      name without tripping the one-claim rule.

    The state is flat: holders in an [int array] over the namespace,
    sessions in an [Int]-keyed table, so applying an event hashes
    nothing polymorphically.

    A backend trace refines the spec iff every adapted event is either
    an enabled transition ([`Step]), or changes nothing ([`Stutter]).
    [`Reject] names the first inexplicable event. *)

type config = {
  namespace : int;  (** names live in [0, namespace) *)
  one_shot : bool;
      (** [true]: the executor discipline — a session acquires at most
          one name and must re-invoke after a reclaim.  [false]: the
          lease discipline — a session may hold several leases (an
          abandoned queue ticket can grant after the retry already
          did), and only the fencing/uniqueness invariants bind. *)
}

type t

val create : config -> t
val config : t -> config

type verdict = [ `Step | `Stutter | `Reject of string ]

val apply : t -> Obs_event.t -> verdict
(** Deterministic; [`Reject] leaves the state unchanged. *)

val holder : t -> name:int -> int option
(** The session currently holding [name], if any. *)

val held : t -> int
(** Names currently held. *)

val snapshot : t -> string
(** Canonical rendering of the full state (sorted), for determinism
    tests and counterexample reports. *)

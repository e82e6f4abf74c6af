(** Bounded admission queue with load shedding and request deadlines.

    Requests that cannot be granted immediately wait in a FIFO queue of
    bounded length.  Two degradation mechanisms keep the service
    responsive instead of collapsing under churn:
    - {e load shedding}: when utilization is at or above the high-water
      mark, or the queue is full, new requests are refused outright with
      a structured [shed_reason] (clients back off and retry);
    - {e request timeouts}: a queued request that waits longer than
      [request_timeout] expires and is answered [`Expired] rather than
      holding its queue slot forever. *)

type config = {
  queue_limit : int;  (** max waiting requests *)
  request_timeout : float;  (** max queue wait before [`Expired] *)
  high_water : float;
      (** utilization at which shedding starts.  Below 1.0 the service
          refuses new work while capacity remains (headroom reserved for
          reclaim churn and queue drain); set above 1.0 to disable
          utilization shedding entirely — admission then degrades
          through the bounded queue alone ([Queue_full] / timeouts). *)
}

val make_config :
  ?queue_limit:int -> ?request_timeout:float -> ?high_water:float -> unit -> config
(** Defaults: [queue_limit = 64], [request_timeout = 5.0],
    [high_water = 0.85]. *)

type shed_reason = High_water | Queue_full

type t

val create : config -> t

val depth : t -> int

val offer : t -> session:int -> now:float -> utilization:float -> (int, shed_reason) result
(** Enqueue a request; returns its ticket.  Sheds (without enqueueing)
    when utilization has reached the high-water mark or the queue is
    full. *)

type waiting = { w_ticket : int; w_session : int; w_enqueued : float }
(** A queued request: its ticket, its session and when it was queued. *)

val head_expired : t -> now:float -> bool
(** Whether the oldest queued request has waited longer than
    [request_timeout] at [now].  FIFO order makes the overdue requests
    a prefix, so popping with {!pop_expired} while this holds expires
    exactly those.  Allocates nothing. *)

val pop_expired : t -> waiting
(** Dequeue the oldest request as a deadline miss, counting it in
    {!expired_total}.  Call it only while {!head_expired} holds.
    Raises [Invalid_argument] when the queue is empty. *)

val pop : t -> waiting
(** Dequeue the oldest request to be granted.  Expire the overdue
    prefix first ({!head_expired}, {!pop_expired}), so deadline misses
    are reported, not silently granted.  Allocates nothing; raises
    [Invalid_argument] when the queue is empty. *)

val expired_total : t -> int
(** Requests that hit their deadline while still queued, over the
    queue's lifetime — the admission queue's own count, independent of
    how callers fold the expired requests into their outcomes.
    {!Service} exposes it in the obs registry as
    [admission/deadline_expired]. *)

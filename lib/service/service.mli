(** The lease-based renaming service façade.

    One object ties the pieces together: the {!Lease} table (names,
    TTLs, fencing epochs), the {!Admission} queue (bounded waiting,
    shedding, request deadlines), an independent {!Audit} mirror that
    raises on any safety violation, and telemetry (plain counters always,
    {!Renaming_obs.Obs} registration when a capability is supplied).

    Time comes exclusively from the injected {!Renaming_clock.Clock} —
    the service never reads the wall clock — so simulated runs are
    deterministic and tests drive expiry by hand.

    Call {!pump} periodically: it reclaims expired leases, expires
    overdue queued requests, and grants to the head of the queue while
    capacity allows.  It may be called as often as wanted — the churn
    driver calls it, through {!Router.pump}, before every event — since
    a pump with nothing to do costs a constant and allocates nothing,
    whether the queue is empty or the table is full ({!pump}). *)

type config = { lease : Lease.config; admission : Admission.config }

val make_config : ?lease:Lease.config -> ?admission:Admission.config -> unit -> config

type t

type stats = {
  mutable grants : int;
  mutable queued : int;
  mutable renews : int;
  mutable releases : int;
  mutable fenced : int;  (** stale operations rejected by epoch fencing *)
  mutable sheds_high_water : int;
  mutable sheds_queue_full : int;
  mutable expired_requests : int;
  mutable reclaims : int;
  mutable validates : int;
}

type ledger = {
  l_stats : stats;
  l_probes : Renaming_obs.Hist.t;  (** probes per grant *)
  l_reclaim : Renaming_obs.Hist.t;  (** centiticks from expiry to reclamation *)
  l_wait : Renaming_obs.Hist.t;  (** centiticks queued before grant or timeout *)
  l_lifetime : Renaming_obs.Hist.t;  (** centiticks from grant to voluntary release *)
}
(** Where a service records its counters and histograms. *)

val make_ledger : ?obs:Renaming_obs.Obs.t -> unit -> ledger
(** Zeroed counters; the histograms are [obs]'s registry ones when
    given, fresh otherwise. *)

val create :
  ?obs:Renaming_obs.Obs.t ->
  ?tap:(now:float -> Audit.event -> unit) ->
  ?ledger:ledger ->
  clock:Renaming_clock.Clock.t ->
  rng:Renaming_rng.Xoshiro.t ->
  config ->
  t
(** [?tap] hears every audit event after the mirror has accepted it —
    the sharded router uses it to feed a cross-shard global-uniqueness
    mirror without the service knowing about shards.  [?ledger] (default
    a fresh [make_ledger ?obs ()]) may be shared by several services,
    which then report its totals through {!stats} and the histogram
    accessors — the router shares one across every slice body it ever
    creates, so bodies lost to crashes keep counting. *)

(** {2 Client operations} *)

type outcome =
  | Granted of Lease.grant
  | Queued of int  (** ticket; resolution arrives from {!pump} *)
  | Shed of Admission.shed_reason

val acquire : t -> session:int -> outcome
(** Fast path grants immediately when the queue is empty, utilization is
    below the high-water mark and capacity remains; otherwise the
    request queues or sheds. *)

val renew : t -> fence:Lease.fence -> (float, [ `Fenced ]) result
val release : t -> fence:Lease.fence -> (float, [ `Fenced ]) result

val use : t -> fence:Lease.fence -> (unit, [ `Fenced ]) result
(** Fenced access check — the operation a reclaimed (stale) client must
    always see rejected. *)

(** {2 Service loop} *)

type completion =
  | Done of { ticket : int; session : int; grant : Lease.grant; waited : float }
  | Timed_out of { ticket : int; session : int; waited : float }

val pump : t -> completion list
(** Reclaim expired leases, expire overdue queued requests, then grant
    from the queue head while capacity allows.  The completions come in
    that order: every [Timed_out] first, then every [Done], each group
    oldest ticket first.

    Allocation contract: when the admission queue is empty, or every
    lease is held and the queue head is not past its deadline, a pump
    returns [[]] and, unless a lease expiry is due, allocates nothing —
    the saturated regime, where most pumps find nothing to do.
    Otherwise it allocates the list it returns and its completions,
    plus the audit events and lease records of the reclaims and grants
    it performs; the expiry and grant loops build no closures, options
    or intermediate lists. *)

(** {2 Introspection} *)

val stats : t -> stats
val held : t -> int
val utilization : t -> float
val slots : t -> int
val queue_depth : t -> int

val deadline_expired : t -> int
(** Requests that hit their deadline while queued
    ({!Admission.expired_total}); also published as the
    [admission/deadline_expired] obs counter when the service was
    created with [?obs]. *)

val audit_live : t -> int

val audit_near_misses : t -> int
(** Stale operations the audit mirror saw correctly fenced. *)

val audit_violations : t -> int
(** Violations the audit mirror detected (each also raised). *)

val centiticks : float -> int
(** The fixed time→bucket scaling used by the ledger's histograms
    (1 clock unit = 100 centiticks). *)

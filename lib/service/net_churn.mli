(** The churn driver: a closed-loop client population against the
    sharded lease service, every operation a message.

    Clients mint a session, acquire a name (Zipf-skewed keys, cached
    shard hints), hold it while renewing, release and think; with
    probability [crash_rate] a holder crashes instead, restarts later,
    and its ghost may replay the dead fence.  Every operation is a typed
    envelope through {!Transport}:
    clients send requests to the router node, the router resolves the
    slice through its directory and failure-detector view ({!Router.route})
    and forwards to the owning shard with the directory epoch, the shard
    executes against its resident slice body and replies directly to the
    client.  Messages are dropped, duplicated, reordered, delayed and
    partitioned per the configured {!Transport.faults}, so the protocol
    layers under test are:

    - {b at-most-once dedup} ({!Dedup}, one table per slice, moving with
      the body on clean handoff and dying with it on a crash): duplicate
      deliveries replay the cached reply, reordered stragglers are
      discarded, and a fresh execution is recorded before its reply is
      sent;
    - {b timeout/retry}: clients retransmit the same request id on a
      timeout (same sequence number — the dedup key), back off between
      whole attempts with {!Renaming_faults.Retry.jittered_delay}, and
      abandon after bounded attempts;
    - {b failure detection}: shards heartbeat the router; the router
      suspects silence, orphans suspected shards' slices, re-owns them on
      recovery and adopts them after grace ({!Router.enable_detector}).
      Shard crashes are {e silent} ([Shard.crash] directly, not
      [Router.crash_shard]) — the router only ever learns from missing
      heartbeats or a higher incarnation number.

    In-process deployments are presets of the same driver (IronFleet's
    framing: a local call is a message on a reliable network).  The
    lease-service preset runs the smallest router the directory allows
    on {!Transport.perfect} with no node faults; the sharded preset adds
    forced handoffs crashed mid-transit ([handoff]), silent shard
    crashes ([shard_crash]) and stalls ([stall]); the net preset adds
    message faults and partitions.

    The run aborts on the first audit violation, and additionally audits
    {e at-most-once} end-to-end: a request id whose acquire executes
    effectfully twice without the slice provably losing its body in
    between is a [double_grants] — the exact failure the dedup window
    bound exists to prevent (docs/fault_model.md §8).

    Config validation enforces the safety sizing rules rather than
    documenting them: [suspicion > hb_every],
    [grace >= ttl + hb_every + 2·max network delay], and
    [dedup_window >= retransmit horizon + 2·max network delay]. *)

type burst = { b_at : int; b_width : int; b_failures : int }
(** Correlated client crashes: [b_failures] distinct clients crash (if
    holding) within [b_width] time units of [b_at]
    ({!Renaming_workload.Crash_pattern.burst}). *)

type partition_plan = {
  p_every : float;  (** mean time between partition injections *)
  p_duration : float;
  p_both : float;
      (** P[the partition also blocks router→shard, isolating the shard
          fully; otherwise only shard→router (heartbeats) is cut — the
          classic false-suspicion asymmetry] *)
}

type crash_plan = {
  c_every : float;  (** mean time between silent shard crashes *)
  c_restart : float;
      (** mean restart delay, jittered ×[0.5, 1.5] so restarts land both
          inside the suspicion window (exercising incarnation orphans)
          and outside it (exercising sweep suspicions) *)
}

type stall_plan = { st_every : float; st_duration : float }
(** Every [st_every], stall the next live shard (round-robin) for a
    duration jittered ×[0.5, 1.5] around [st_duration].  The stalled
    shard stops serving and heartbeating; one the detector suspects and
    then outlives the grace loses its slices to adoption, and on waking
    drops the stale bodies. *)

type handoff_plan = {
  h_every : float;  (** mean time between forced slice handoffs *)
  h_crash_src : float;  (** P[crash the source shard mid-transit] *)
  h_crash_dst : float;  (** P[crash the destination shard mid-transit] *)
  h_restart : float;  (** mean restart delay of a shard crashed mid-transit *)
}
(** Every [h_every], move the next slice (round-robin) to the next live
    shard after its owner, and crash the source or destination in the
    transit window with the given probabilities (silent crashes, like
    [shard_crash]'s). *)

type config = {
  clients : int;
  sessions_target : int;
  router : Router.config;
  faults : Transport.faults;
  hb_every : float;  (** heartbeat period *)
  suspicion : float;  (** heartbeat silence before suspicion *)
  dedup_window : float;  (** per-slice dedup entry idle eviction age *)
  rto : float;  (** client retransmit timeout *)
  zipf_s : float;
  mean_hold : float;
  mean_think : float;
  renew_every : float;
  crash_rate : float;  (** P[client crashes while holding] *)
  stale_wakeup : float;  (** P[a crashed client's ghost replays its fence] *)
  client_restart_delay : float;
  max_attempts : int;  (** whole-request attempts before abandoning *)
  rto_retries : int;  (** same-rid retransmits before a fresh attempt *)
  backoff_unit : float;  (** scales jittered backoff ticks to sim time *)
  arrival : Renaming_workload.Arrival.pattern;
  burst : burst option;
  partition : partition_plan option;
  shard_crash : crash_plan option;
  stall : stall_plan option;
  handoff : handoff_plan option;
  max_events : int;
}

val make_config :
  ?clients:int ->
  ?sessions_target:int ->
  ?router:Router.config ->
  ?faults:Transport.faults ->
  ?hb_every:float ->
  ?suspicion:float ->
  ?dedup_window:float ->
  ?rto:float ->
  ?zipf_s:float ->
  ?mean_hold:float ->
  ?mean_think:float ->
  ?renew_every:float ->
  ?crash_rate:float ->
  ?stale_wakeup:float ->
  ?client_restart_delay:float ->
  ?max_attempts:int ->
  ?rto_retries:int ->
  ?backoff_unit:float ->
  ?arrival:Renaming_workload.Arrival.pattern ->
  ?burst:burst ->
  ?partition:partition_plan ->
  ?shard_crash:crash_plan ->
  ?stall:stall_plan ->
  ?handoff:handoff_plan ->
  ?max_events:int ->
  unit ->
  config
(** Raises on any violated sizing rule (see module doc).  Default router
    config: 4 shards × 8 slices, [ttl = 15], [grace = 24], auto
    rebalancing off (ownership moves only through failure detection). *)

type summary = {
  sessions : int;
  client_crashes : int;
  client_restarts : int;
  shard_crashes : int;
  shard_restarts : int;
  shard_stalls : int;
  partitions : int;
  abandoned : int;
  resends : int;  (** same-rid retransmits (timeout, poll and renew) *)
  timeouts : int;  (** rid retransmit budgets exhausted *)
  lost_tickets : int;
  redirects : int;
  shard_down_busy : int;
  in_handoff_busy : int;
  sheds : int;
  expected_fenced : int;
  unexpected_fenced : int;  (** fenced with no disruption to blame — must be 0 *)
  releases_dropped : int;
  late_grants_released : int;
      (** grants nobody was waiting for (abandoned or crashed requester),
          handed straight back *)
  double_grants : int;
      (** at-most-once violations: a rid executed effectfully twice with
          no body loss in between — must be 0 *)
  stale_ops : int;  (** ghost operations replayed, three per ghost *)
  stale_rejected : int;  (** ghost operations answered fenced, busy or timed out *)
  stale_fenced : int;  (** ghost operations that reached the fence *)
  stale_ok : int;  (** ghost operations that succeeded — must be 0 *)
  events : int;
  sim_time : float;
  peak_held : int;
  final_held : int;
  livelocked : bool;
  violation : (string * string) option;
  audit_near_misses : int;
  gaudit_violations : int;
  gaudit_live : int;
  net : Transport.stats;
  dedup : Dedup.stats;  (** aggregated over every slice table, including
                            tables retired by crashes *)
  detector : Router.detector_stats;
      (** heartbeats run until the last client has finished and every
          non-periodic event has fired, so a fault-free run reports no
          suspicions *)
  router : Router.stats;
  service : Service.stats;
      (** over every slice body of the run ({!Router.service_ledger}) *)
  h_probes : Renaming_obs.Hist.t;  (** probes per grant *)
  h_reclaim : Renaming_obs.Hist.t;  (** centiticks from expiry to reclamation *)
  h_wait : Renaming_obs.Hist.t;  (** centiticks queued before grant or timeout *)
  h_lifetime : Renaming_obs.Hist.t;  (** centiticks from grant to release *)
}

val run :
  ?obs:Renaming_obs.Obs.t ->
  ?tap:(Router.tap_event -> unit) ->
  config ->
  seed:int64 ->
  summary
(** Deterministic for a given [(config, seed)].  [?tap] is passed
    through to {!Router.create} (audit events + slice absorbs, for the
    refinement harness).  Observation only — retransmits, dedup
    replays and fenced ghosts are invisible at the audit level and
    refine to stutters for free. *)

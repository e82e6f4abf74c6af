module Clock = Renaming_clock.Clock
module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics
module Hist = Renaming_obs.Hist

type config = { lease : Lease.config; admission : Admission.config }

let make_config ?lease ?admission () =
  let lease = match lease with Some l -> l | None -> Lease.make_config ~capacity:64 () in
  let admission = match admission with Some a -> a | None -> Admission.make_config () in
  { lease; admission }

type stats = {
  mutable grants : int;
  mutable queued : int;
  mutable renews : int;
  mutable releases : int;
  mutable fenced : int;
  mutable sheds_high_water : int;
  mutable sheds_queue_full : int;
  mutable expired_requests : int;
  mutable reclaims : int;
  mutable validates : int;
}

type counters = {
  c_grants : Metrics.counter;
  c_renews : Metrics.counter;
  c_releases : Metrics.counter;
  c_fenced : Metrics.counter;
  c_sheds : Metrics.counter;
  c_expired : Metrics.counter;
  c_deadline : Metrics.counter;
      (* the admission queue's own deadline-miss count, distinct from
         the service-outcome counter so queue-health dashboards need not
         reverse-engineer it from Timed_out completions *)
  c_reclaims : Metrics.counter;
}

type t = {
  cfg : config;
  clock : Clock.t;
  rng : Renaming_rng.Xoshiro.t;
  lease : Lease.t;
  admission : Admission.t;
  audit : Audit.t;
  tap : (now:float -> Audit.event -> unit) option;
  st : stats;
  counters : counters option;
  h_probes : Hist.t;
  h_reclaim : Hist.t;
  h_wait : Hist.t;
  h_lifetime : Hist.t;
}

let centiticks x = if x <= 0. then 0 else int_of_float ((x *. 100.) +. 0.5)

type ledger = {
  l_stats : stats;
  l_probes : Hist.t;
  l_reclaim : Hist.t;
  l_wait : Hist.t;
  l_lifetime : Hist.t;
}

let make_ledger ?obs () =
  let hist name = match obs with Some o -> Obs.histogram o name | None -> Hist.create () in
  {
    l_stats =
      {
        grants = 0;
        queued = 0;
        renews = 0;
        releases = 0;
        fenced = 0;
        sheds_high_water = 0;
        sheds_queue_full = 0;
        expired_requests = 0;
        reclaims = 0;
        validates = 0;
      };
    l_probes = hist "service/probes";
    l_reclaim = hist "service/reclaim_lateness";
    l_wait = hist "service/queue_wait";
    l_lifetime = hist "service/lease_lifetime";
  }

let create ?obs ?tap ?ledger ~clock ~rng (cfg : config) =
  let lease = Lease.create cfg.lease in
  let l = match ledger with Some l -> l | None -> make_ledger ?obs () in
  let counters =
    Option.map
      (fun o ->
        {
          c_grants = Obs.counter o "service/grants";
          c_renews = Obs.counter o "service/renews";
          c_releases = Obs.counter o "service/releases";
          c_fenced = Obs.counter o "service/fenced";
          c_sheds = Obs.counter o "service/sheds";
          c_expired = Obs.counter o "service/expired_requests";
          c_deadline = Obs.counter o "admission/deadline_expired";
          c_reclaims = Obs.counter o "service/reclaims";
        })
      obs
  in
  {
    cfg;
    clock;
    rng;
    lease;
    admission = Admission.create cfg.admission;
    audit = Audit.create ?obs ~capacity:cfg.lease.Lease.capacity ~slots:(Lease.slots lease) ();
    tap;
    st = l.l_stats;
    counters;
    h_probes = l.l_probes;
    h_reclaim = l.l_reclaim;
    h_wait = l.l_wait;
    h_lifetime = l.l_lifetime;
  }

let bump t f = match t.counters with Some c -> Metrics.incr (f c) | None -> ()

(* The audit mirror sees every event first (it may raise); the optional
   tap then hears the same stream — the sharded router uses this to feed
   its cross-shard global-uniqueness mirror. *)
let observe t ~now event =
  Audit.observe t.audit ~now event;
  match t.tap with Some f -> f ~now event | None -> ()

let capacity t = t.cfg.lease.Lease.capacity
let ttl t = t.cfg.lease.Lease.ttl

(* Every entry point reclaims first: expiry work is driven by whoever
   touches the service, so no background thread is needed and the
   auditor always sees reclaims before any operation at the same
   instant could observe the freed slot. *)
let reclaim t ~now =
  (* Without a due expiry only the compaction check is left, and it
     must still run: it bounds the heap whatever the call pattern. *)
  if not (Lease.expiry_due t.lease ~now) then Lease.maybe_compact t.lease
  else
    List.iter
      (fun (r : Lease.reclaimed) ->
        observe t ~now
          (Audit.Reclaimed { fence = r.Lease.r_fence; expired_at = r.Lease.r_expired_at });
        t.st.reclaims <- t.st.reclaims + 1;
        bump t (fun c -> c.c_reclaims);
        Hist.observe t.h_reclaim (centiticks r.Lease.r_lateness))
      (Lease.reclaim_expired t.lease ~now)

(* Callers must ensure [held < capacity]; the lease table then cannot
   refuse (the probe cap falls back to a sweep over a non-full table). *)
let do_grant t ~session ~now =
  match Lease.acquire t.lease ~session ~now ~rng:t.rng with
  | Error `At_capacity -> invalid_arg "Service.do_grant: called at capacity"
  | Ok grant ->
    observe t ~now
      (Audit.Granted { fence = grant.Lease.g_fence; expires = now +. ttl t });
    t.st.grants <- t.st.grants + 1;
    bump t (fun c -> c.c_grants);
    Hist.observe t.h_probes grant.Lease.g_probes;
    grant

type outcome =
  | Granted of Lease.grant
  | Queued of int
  | Shed of Admission.shed_reason

let acquire t ~session =
  let now = Clock.now t.clock in
  reclaim t ~now;
  let util = Lease.utilization t.lease in
  if
    Admission.depth t.admission = 0
    && util < t.cfg.admission.Admission.high_water
    && Lease.held t.lease < capacity t
  then Granted (do_grant t ~session ~now)
  else
    match Admission.offer t.admission ~session ~now ~utilization:util with
    | Error reason ->
      (match reason with
      | Admission.High_water -> t.st.sheds_high_water <- t.st.sheds_high_water + 1
      | Admission.Queue_full -> t.st.sheds_queue_full <- t.st.sheds_queue_full + 1);
      bump t (fun c -> c.c_sheds);
      Shed reason
    | Ok ticket ->
      t.st.queued <- t.st.queued + 1;
      Queued ticket

let renew t ~fence =
  let now = Clock.now t.clock in
  reclaim t ~now;
  let result = Lease.renew t.lease ~fence ~now in
  let accepted = Result.is_ok result in
  let expires = match result with Ok e -> e | Error `Fenced -> 0. in
  observe t ~now (Audit.Renewed { fence; expires; accepted });
  if accepted then begin
    t.st.renews <- t.st.renews + 1;
    bump t (fun c -> c.c_renews)
  end
  else begin
    t.st.fenced <- t.st.fenced + 1;
    bump t (fun c -> c.c_fenced)
  end;
  result

let use t ~fence =
  let now = Clock.now t.clock in
  reclaim t ~now;
  let result = Lease.validate t.lease ~fence in
  let accepted = Result.is_ok result in
  observe t ~now (Audit.Validated { fence; accepted });
  t.st.validates <- t.st.validates + 1;
  if not accepted then begin
    t.st.fenced <- t.st.fenced + 1;
    bump t (fun c -> c.c_fenced)
  end;
  result

let release t ~fence =
  let now = Clock.now t.clock in
  reclaim t ~now;
  let result = Lease.release t.lease ~fence ~now in
  let accepted = Result.is_ok result in
  observe t ~now (Audit.Released { fence; accepted });
  (match result with
  | Ok held_for ->
    t.st.releases <- t.st.releases + 1;
    bump t (fun c -> c.c_releases);
    Hist.observe t.h_lifetime (centiticks held_for)
  | Error `Fenced ->
    t.st.fenced <- t.st.fenced + 1;
    bump t (fun c -> c.c_fenced));
  result

type completion =
  | Done of { ticket : int; session : int; grant : Lease.grant; waited : float }
  | Timed_out of { ticket : int; session : int; waited : float }

(* Completions are built in order as the list is returned (tail
   modulo cons): first the overdue prefix of the queue, oldest first,
   then grants from the head while capacity allows.  With nothing to
   complete (an empty queue, or a full table whose queue head is not
   yet overdue) that is two or three tests and no allocation. *)
let[@tail_mod_cons] rec expire_queued t ~now =
  if Admission.head_expired t.admission ~now then begin
    let w = Admission.pop_expired t.admission in
    let waited = now -. w.Admission.w_enqueued in
    t.st.expired_requests <- t.st.expired_requests + 1;
    bump t (fun c -> c.c_expired);
    bump t (fun c -> c.c_deadline);
    Hist.observe t.h_wait (centiticks waited);
    Timed_out { ticket = w.Admission.w_ticket; session = w.Admission.w_session; waited }
    :: expire_queued t ~now
  end
  else grant_queued t ~now

and[@tail_mod_cons] grant_queued t ~now =
  if Admission.depth t.admission = 0 || Lease.held t.lease >= capacity t then []
  else begin
    let w = Admission.pop t.admission in
    let session = w.Admission.w_session and waited = now -. w.Admission.w_enqueued in
    let grant = do_grant t ~session ~now in
    Hist.observe t.h_wait (centiticks waited);
    Done { ticket = w.Admission.w_ticket; session; grant; waited } :: grant_queued t ~now
  end

let pump t =
  let now = Clock.now t.clock in
  reclaim t ~now;
  expire_queued t ~now

let stats t = t.st
let held t = Lease.held t.lease
let utilization t = Lease.utilization t.lease
let slots t = Lease.slots t.lease
let queue_depth t = Admission.depth t.admission
let deadline_expired t = Admission.expired_total t.admission
let audit_live t = Audit.live t.audit
let audit_near_misses t = Audit.near_misses t.audit
let audit_violations t = Audit.violations t.audit

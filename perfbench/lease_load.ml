(* lease-saturated: one lease service (lease table + admission + audit)
   driven far above capacity by the benchmark's own closed-loop load
   generator.  Clients outnumber capacity 4:1, so shedding, queue
   timeouts, reclamation of crashed holders' leases and fencing of
   their ghosts all fire on every episode.  Router, transport and
   dedup are absent: lease and admission do almost all the work.

   The generator calls only [Service.acquire/renew/use/release/pump]
   and observes through [Lease_adapter.service_tap].  A shed or
   timed-out client backs off and retries until granted, so no session
   is abandoned; its acquire latency (simulated time from its first
   attempt to its grant) counts every back-off. *)

module Service = Renaming_service.Service
module Lease = Renaming_service.Lease
module Admission = Renaming_service.Admission
module Audit = Renaming_service.Audit
module Heap = Renaming_service.Heap
module Lease_adapter = Renaming_refine.Lease_adapter
module Check = Renaming_refine.Check
module Clock = Renaming_clock.Clock
module Stream = Renaming_rng.Stream
module Sample = Renaming_rng.Sample
module Xoshiro = Renaming_rng.Xoshiro
module Longlived = Renaming_longlived.Longlived

type sizes = { capacity : int; clients : int; sessions : int; det_episodes : int }

let full = { capacity = 64; clients = 256; sessions = 20_000; det_episodes = 4 }
let tiny = { capacity = 8; clients = 32; sessions = 400; det_episodes = 2 }

(* Fixed workload shape (simulated time units). *)
let ttl = 10.0
let renew_every = 3.0
let mean_hold = 6.0
let mean_think = 2.0
let crash_rate = 0.1
let ghost_rate = 0.5
let restart_delay = 4.0
let request_timeout = 1.0
let queue_limit = 32

(* Above 1.0 disables utilization shedding: at capacity, admission
   degrades through the bounded queue alone (queue-full sheds and
   deadline expiries), so both fire on every episode. *)
let high_water = 2.0
let backoff_unit = 0.25

let config sz =
  Service.make_config
    ~lease:(Lease.make_config ~ttl ~capacity:sz.capacity ())
    ~admission:(Admission.make_config ~queue_limit ~request_timeout ~high_water ())
    ()

type phase = Idle | Waiting of int | Holding of Lease.fence | Crashed | Done

type client = {
  mutable phase : phase;
  mutable gen : int;  (* bumped at every transition; stale timers are dropped *)
  mutable session : int;  (* -1 between sessions *)
  mutable first_attempt : float;
  mutable attempts : int;
  mutable hold_end : float;
}

type ev =
  | Start of int * int
  | Poll
  | Renew of int * int
  | Finish of int * int
  | Crash of int * int
  | Restart of int * int
  | Ghost of Lease.fence

(* Spans (traced episodes only); [rid] is the session id. *)
let span_names =
  [ "client.event"; "service.acquire"; "service.pump"; "service.renew"; "service.release";
    "service.use"; "refine.tap" ]

type tracing = {
  tr : Span.t;
  sp_event : int;
  sp_acquire : int;
  sp_pump : int;
  sp_renew : int;
  sp_release : int;
  sp_use : int;
  sp_tap : int;
  mutable parent : int;
  mutable stream : (float * Audit.event) list;  (* tap events, newest first *)
}

let tracing () =
  let tr = Span.create span_names in
  {
    tr;
    sp_event = Span.id tr "client.event";
    sp_acquire = Span.id tr "service.acquire";
    sp_pump = Span.id tr "service.pump";
    sp_renew = Span.id tr "service.renew";
    sp_release = Span.id tr "service.release";
    sp_use = Span.id tr "service.use";
    sp_tap = Span.id tr "refine.tap";
    parent = -1;
    stream = [];
  }

(* What one episode reports besides its [Meter.episode]. *)
type result = {
  sessions : int;  (** sessions started *)
  granted : int;  (** sessions that obtained a name *)
  latencies : float array;  (** per granted session, simulated time *)
  waits : float list;  (** queue waits of resolved tickets *)
  acquire_calls : int;
  grants_seen : int;
  probes : int;
  swept : int;
  stats : Service.stats;
  deadline_expired : int;
  refine_events : int;
  refine_stutters : int;
  refine_violations : int;
  violations : string list;
}

let run_episode ?tracing (sz : sizes) ~seed =
  let stream = Stream.create seed in
  let rng = Stream.fork_named stream ~name:"clients" in
  let now = ref 0. in
  let clock = Clock.of_fn ~label:"perfbench-lease" (fun () -> !now) in
  let adapter =
    Lease_adapter.create ~namespace:(Longlived.namespace_for ~sessions:sz.capacity ~epsilon:0.5) ()
  in
  let tap =
    match tracing with
    | None -> Lease_adapter.service_tap adapter
    | Some t ->
      fun ~now ev ->
        t.stream <- (now, ev) :: t.stream;
        let s0 = Span.now_ns () in
        let slot = Span.enter t.tr ~id:t.sp_tap ~start:s0 ~parent:t.parent ~rid:(-1) in
        Lease_adapter.service_tap adapter ~now ev;
        Span.leave t.tr ~id:t.sp_tap ~slot ~start:s0
  in
  let svc =
    Service.create ~tap ~clock ~rng:(Stream.fork_named stream ~name:"service") (config sz)
  in
  let call id ~rid f =
    match tracing with
    | None -> f ()
    | Some t ->
      let s0 = Span.now_ns () in
      let slot = Span.enter t.tr ~id:(id t) ~start:s0 ~parent:t.parent ~rid in
      let r = f () in
      Span.leave t.tr ~id:(id t) ~slot ~start:s0;
      r
  in
  let clients =
    Array.init sz.clients (fun _ ->
        { phase = Idle; gen = 0; session = -1; first_attempt = 0.; attempts = 0; hold_end = 0. })
  in
  let heap : ev Heap.t = Heap.create () in
  let minted = ref 0 and granted = ref 0 and events = ref 0 in
  let latencies = Array.make (sz.sessions + sz.clients) 0. in
  let waits = ref [] in
  let acquire_calls = ref 0 and grants_seen = ref 0 and probes = ref 0 and swept = ref 0 in
  let unexpected_fenced = ref 0 and stale_ok = ref 0 in
  let livelocked = ref false and audit = ref [] in
  let tickets : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let schedule ~at ev = Heap.push heap ~time:(Float.max at !now) ev in
  let jitter around = around *. (0.5 +. Sample.float_unit rng) in
  let bump c = c.gen <- c.gen + 1 in
  let note_grant (g : Lease.grant) =
    incr grants_seen;
    probes := !probes + g.Lease.g_probes;
    if g.Lease.g_swept then incr swept
  in
  let start_next idx ~after =
    let c = clients.(idx) in
    bump c;
    c.session <- -1;
    if !minted >= sz.sessions then c.phase <- Done
    else begin
      c.phase <- Idle;
      schedule ~at:(!now +. after) (Start (idx, c.gen))
    end
  in
  let back_off idx =
    let c = clients.(idx) in
    bump c;
    c.phase <- Idle;
    c.attempts <- c.attempts + 1;
    let delay = backoff_unit *. float_of_int (1 lsl min c.attempts 5) in
    schedule ~at:(!now +. jitter delay) (Start (idx, c.gen))
  in
  let enter_holding idx (g : Lease.grant) =
    let c = clients.(idx) in
    note_grant g;
    latencies.(!granted) <- !now -. c.first_attempt;
    incr granted;
    bump c;
    c.phase <- Holding g.Lease.g_fence;
    let hold = jitter mean_hold in
    c.hold_end <- !now +. hold;
    if Sample.bernoulli rng crash_rate then
      schedule ~at:(!now +. (Sample.float_unit rng *. hold)) (Crash (idx, c.gen))
    else begin
      schedule ~at:c.hold_end (Finish (idx, c.gen));
      if !now +. renew_every < c.hold_end then
        schedule ~at:(!now +. renew_every) (Renew (idx, c.gen))
    end
  in
  let resolve = function
    | Service.Done { ticket; grant; waited; session } -> (
      waits := waited :: !waits;
      match Hashtbl.find_opt tickets ticket with
      | Some idx when clients.(idx).phase = Waiting ticket ->
        Hashtbl.remove tickets ticket;
        enter_holding idx grant
      | _ ->
        (* Nobody waits for this grant any more: hand it straight back. *)
        note_grant grant;
        ignore
          (call (fun t -> t.sp_release) ~rid:session (fun () ->
               Service.release svc ~fence:grant.Lease.g_fence)))
    | Service.Timed_out { ticket; waited; _ } -> (
      waits := waited :: !waits;
      match Hashtbl.find_opt tickets ticket with
      | Some idx ->
        Hashtbl.remove tickets ticket;
        if clients.(idx).phase = Waiting ticket then back_off idx
      | None -> ())
  in
  let fresh idx gen = clients.(idx).gen = gen in
  let handle = function
    | Start (idx, gen) when fresh idx gen ->
      let c = clients.(idx) in
      if c.session < 0 then begin
        c.session <- !minted;
        incr minted;
        c.first_attempt <- !now;
        c.attempts <- 0
      end;
      let session = c.session in
      incr acquire_calls;
      (match call (fun t -> t.sp_acquire) ~rid:session (fun () -> Service.acquire svc ~session) with
      | Service.Granted g -> enter_holding idx g
      | Service.Queued ticket ->
        bump c;
        c.phase <- Waiting ticket;
        Hashtbl.replace tickets ticket idx;
        schedule ~at:(!now +. request_timeout +. 0.001) Poll
      | Service.Shed _ -> back_off idx)
    | Renew (idx, gen) when fresh idx gen -> (
      let c = clients.(idx) in
      match c.phase with
      | Holding fence -> (
        match call (fun t -> t.sp_renew) ~rid:c.session (fun () -> Service.renew svc ~fence) with
        | Ok _ ->
          if !now +. renew_every < c.hold_end then
            schedule ~at:(!now +. renew_every) (Renew (idx, c.gen))
        | Error `Fenced ->
          incr unexpected_fenced;
          start_next idx ~after:(jitter mean_think))
      | _ -> ())
    | Finish (idx, gen) when fresh idx gen -> (
      let c = clients.(idx) in
      match c.phase with
      | Holding fence ->
        (match call (fun t -> t.sp_use) ~rid:c.session (fun () -> Service.use svc ~fence) with
        | Ok () -> ()
        | Error `Fenced -> incr unexpected_fenced);
        (match call (fun t -> t.sp_release) ~rid:c.session (fun () -> Service.release svc ~fence) with
        | Ok _ -> ()
        | Error `Fenced -> incr unexpected_fenced);
        start_next idx ~after:(jitter mean_think)
      | _ -> ())
    | Crash (idx, gen) when fresh idx gen -> (
      let c = clients.(idx) in
      match c.phase with
      | Holding fence ->
        bump c;
        c.phase <- Crashed;
        schedule ~at:(!now +. jitter restart_delay) (Restart (idx, c.gen));
        (* The dead incarnation wakes 1.5–2.5 TTLs later, well past
           expiry, and replays its fence. *)
        if Sample.bernoulli rng ghost_rate then
          schedule ~at:(!now +. (1.5 *. ttl) +. (Sample.float_unit rng *. ttl)) (Ghost fence)
      | _ -> ())
    | Restart (idx, gen) when fresh idx gen -> start_next idx ~after:0.
    | Ghost fence ->
      let rid = fence.Lease.f_session in
      let ok =
        Result.is_ok (call (fun t -> t.sp_renew) ~rid (fun () -> Service.renew svc ~fence))
        || Result.is_ok (call (fun t -> t.sp_use) ~rid (fun () -> Service.use svc ~fence))
        || Result.is_ok (call (fun t -> t.sp_release) ~rid (fun () -> Service.release svc ~fence))
      in
      if ok then incr stale_ok
    | Start _ | Poll | Renew _ | Finish _ | Crash _ | Restart _ -> ()
  in
  Array.iteri (fun idx _ -> start_next idx ~after:(0.05 *. float_of_int idx)) clients;
  let max_events = 200 * (sz.sessions + sz.clients) in
  (try
     let continue = ref true in
     while !continue do
       match Heap.pop heap with
       | None -> continue := false
       | Some _ when !events >= max_events ->
         livelocked := true;
         continue := false
       | Some (time, ev) ->
         incr events;
         now := Float.max !now time;
         let ev_slot, ev_start =
           match tracing with
           | None -> (-1, 0)
           | Some t ->
             let s0 = Span.now_ns () in
             let slot = Span.enter t.tr ~id:t.sp_event ~start:s0 ~parent:(-1) ~rid:(-1) in
             t.parent <- slot;
             (slot, s0)
         in
         List.iter resolve (call (fun t -> t.sp_pump) ~rid:(-1) (fun () -> Service.pump svc));
         handle ev;
         match tracing with
         | None -> ()
         | Some t -> Span.leave t.tr ~id:t.sp_event ~slot:ev_slot ~start:ev_start
     done
   with Audit.Violation { kind; _ } -> audit := ("audit:" ^ kind) :: !audit);
  let chk = Lease_adapter.check adapter in
  let stats = Service.stats svc in
  let gate cond kind acc = if cond then kind :: acc else acc in
  let violations =
    !audit
    |> gate (Check.violations chk > 0) "refine:violation"
    |> gate (Service.audit_violations svc > 0) "audit:violation"
    |> gate (!unexpected_fenced > 0) "unexpected_fenced"
    |> gate (!stale_ok > 0) "stale_ok"
    |> gate !livelocked "livelock"
    (* The workload exists to exercise these paths; an episode that
       misses one no longer measures what it claims to. *)
    |> gate (stats.Service.sheds_high_water + stats.Service.sheds_queue_full = 0) "coverage:shed"
    |> gate (Service.deadline_expired svc = 0) "coverage:queue_timeout"
    |> gate (stats.Service.reclaims = 0) "coverage:reclaim"
    |> gate (Service.audit_near_misses svc = 0) "coverage:fencing"
  in
  {
    sessions = !minted;
    granted = !granted;
    latencies = Array.sub latencies 0 !granted;
    waits = !waits;
    acquire_calls = !acquire_calls;
    grants_seen = !grants_seen;
    probes = !probes;
    swept = !swept;
    stats;
    deadline_expired = Service.deadline_expired svc;
    refine_events = Check.events chk;
    refine_stutters = Check.stutters chk;
    refine_violations = Check.violations chk;
    violations;
  }

(* ---- workload interface ---- *)

type state = { sz : sizes; mutable det_latencies : float array list }

let create sz = { sz; det_latencies = [] }

(* Set-up: build the service stack and run a short warm-up episode. *)
let setup (sz : sizes) ~seed =
  ignore (run_episode { sz with sessions = max 1 (sz.sessions / 8) } ~seed)

let episode st ~seed ~index =
  Meter.measure (fun () ->
      let r = run_episode st.sz ~seed:(Meter.episode_seed ~seed ~episode:index ~lane:0) in
      if index < st.sz.det_episodes then st.det_latencies <- r.latencies :: st.det_latencies;
      (r.granted, r.sessions, r.sessions - r.granted, r.violations))

let latency_metrics latencies =
  let a = Array.concat latencies in
  Array.sort Float.compare a;
  [
    Meter.m "acquire_sim_p50" "sim" (Meter.quantile a 0.5);
    Meter.m "acquire_sim_p999" "sim" (Meter.quantile a 0.999);
  ]

let extras st = latency_metrics st.det_latencies

(* ---- bare-table replay ---- *)

(* Replay a recorded tap stream against a bare [Lease] table: the same
   grants, renewals, validations, releases and reclaims at the same
   simulated times, without admission or audit.  Returns the replay's
   nanoseconds per operation and how many outcomes disagreed with the
   service's. *)
let replay sz (events : (float * Audit.event) array) =
  let fence_of = function
    | Audit.Granted { fence; _ }
    | Audit.Renewed { fence; _ }
    | Audit.Validated { fence; _ }
    | Audit.Released { fence; _ }
    | Audit.Reclaimed { fence; _ } -> fence
  in
  (* Number every granted lease once, outside the timed loop. *)
  let index = Hashtbl.create 1024 in
  let next = ref 0 in
  let lease_of =
    Array.map
      (fun (_, ev) ->
        let f = fence_of ev in
        let key = (f.Lease.f_name, f.Lease.f_session, f.Lease.f_epoch) in
        match ev with
        | Audit.Granted _ ->
          Hashtbl.replace index key !next;
          incr next;
          !next - 1
        | _ -> Option.value (Hashtbl.find_opt index key) ~default:(-1))
      events
  in
  let table = Lease.create (config sz).Service.lease in
  let rng = Xoshiro.create 1L in
  let fences = Array.make (max 1 !next) { Lease.f_name = -1; f_session = -1; f_epoch = -1 } in
  let mismatches = ref 0 and last_reclaim = ref neg_infinity in
  let agree ok accepted = if ok <> accepted then incr mismatches in
  let t0 = Span.now_ns () in
  Array.iteri
    (fun i (now, ev) ->
      let j = lease_of.(i) in
      match ev with
      | Audit.Granted { fence; _ } -> (
        match Lease.acquire table ~session:fence.Lease.f_session ~now ~rng with
        | Ok g -> fences.(j) <- g.Lease.g_fence
        | Error `At_capacity -> incr mismatches)
      | Audit.Renewed { accepted; _ } ->
        agree (Result.is_ok (Lease.renew table ~fence:fences.(j) ~now)) accepted
      | Audit.Validated { accepted; _ } -> agree (Result.is_ok (Lease.validate table ~fence:fences.(j))) accepted
      | Audit.Released { accepted; _ } ->
        agree (Result.is_ok (Lease.release table ~fence:fences.(j) ~now)) accepted
      | Audit.Reclaimed _ ->
        if now <> !last_reclaim then begin
          last_reclaim := now;
          ignore (Lease.reclaim_expired table ~now)
        end)
    events;
  let ns = Span.now_ns () - t0 in
  (ns, !mismatches)

(* ---- traced ledger ---- *)

let traced sz ~seed ~episodes =
  let t = tracing () in
  let replay_ns = ref 0 and replay_ops = ref 0 and mismatches = ref 0 in
  let t0 = Span.now_ns () in
  let runs =
    List.init episodes (fun index ->
        t.stream <- [];
        let r = run_episode ~tracing:t sz ~seed:(Meter.episode_seed ~seed ~episode:index ~lane:0) in
        let events = Array.of_list (List.rev t.stream) in
        let ns, bad = replay sz events in
        replay_ns := !replay_ns + ns;
        replay_ops := !replay_ops + Array.length events;
        mismatches := !mismatches + bad;
        r)
  in
  t.stream <- [];
  let wall_ns = Span.now_ns () - t0 - !replay_ns in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  let sessions = sum (fun r -> r.sessions) in
  let acquires = sum (fun r -> r.acquire_calls) in
  let grants = sum (fun r -> r.grants_seen) in
  let refine_events = sum (fun r -> r.refine_events) in
  let tr = t.tr in
  let call_metrics (label, id) =
    [
      Meter.m (Printf.sprintf "service.%s_ns_p50" label) "ns" (Span.quantile tr id 0.5);
      Meter.m (Printf.sprintf "service.%s_ns_p99" label) "ns" (Span.quantile tr id 0.99);
      Meter.m (Printf.sprintf "service.%s_calls" label) "count" (float_of_int (Span.count tr id));
    ]
  in
  let service_calls =
    List.fold_left (fun acc id -> acc + Span.count tr id) 0
      [ t.sp_acquire; t.sp_pump; t.sp_renew; t.sp_release; t.sp_use ]
  in
  let waits = Meter.sorted_floats (List.concat_map (fun r -> r.waits) runs) in
  let violations =
    List.concat_map (fun r -> r.violations) runs
    @ if !mismatches > 0 then [ "replay:mismatch" ] else []
  in
  ( tr,
    violations,
    wall_ns,
    List.concat_map call_metrics
      [ ("acquire", t.sp_acquire); ("pump", t.sp_pump); ("renew", t.sp_renew); ("release", t.sp_release) ]
    @ [
        Meter.m "service.calls_per_session" "calls" (Meter.ratio service_calls sessions);
        Meter.m "lease.ns_per_op" "ns" (Meter.ratio !replay_ns !replay_ops);
        Meter.m "lease.probes_per_grant" "probes" (Meter.ratio (sum (fun r -> r.probes)) grants);
        Meter.m "lease.sweep_ratio" "ratio" (Meter.ratio (sum (fun r -> r.swept)) grants);
        Meter.m "lease.reclaims_per_session" "count"
          (Meter.ratio (sum (fun r -> r.stats.Service.reclaims)) sessions);
        Meter.m "admission.queued_ratio" "ratio" (Meter.ratio (sum (fun r -> r.stats.Service.queued)) acquires);
        Meter.m "admission.shed_ratio" "ratio"
          (Meter.ratio
             (sum (fun r -> r.stats.Service.sheds_high_water + r.stats.Service.sheds_queue_full))
             acquires);
        Meter.m "admission.deadline_expired" "count" (float_of_int (sum (fun r -> r.deadline_expired)));
        Meter.m "admission.queue_wait_sim_p99" "sim" (Meter.quantile waits 0.99);
        Meter.m "refine.lease.tap_ns_per_event" "ns" (Meter.ratio (Span.total_ns tr t.sp_tap) (Span.count tr t.sp_tap));
        Meter.m "refine.lease.events_per_session" "events" (Meter.ratio refine_events sessions);
        Meter.m "refine.lease.stutter_ratio" "ratio" (Meter.ratio (sum (fun r -> r.refine_stutters)) refine_events);
        Meter.m "refine.lease.violations" "count" (float_of_int (sum (fun r -> r.refine_violations)));
      ]
    @ List.map
        (fun mt -> { mt with Meter.m_name = "lease_saturated." ^ mt.Meter.m_name })
        (latency_metrics (List.map (fun r -> r.latencies) runs)) )

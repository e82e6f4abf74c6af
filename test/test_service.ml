(* Tests for the lease-based renaming service: the deterministic heap,
   the lease table (fencing, expiry, reclamation), the admission queue,
   session minting, the independent audit mirror, the service façade
   under a hand-driven clock, and determinism of the churn simulation. *)

module Heap = Renaming_service.Heap
module Lease = Renaming_service.Lease
module Admission = Renaming_service.Admission
module Minter = Renaming_service.Minter
module Audit = Renaming_service.Audit
module Service = Renaming_service.Service
module Router = Renaming_service.Router
module Shard = Renaming_service.Shard
module Transport = Renaming_service.Transport
module Dedup = Renaming_service.Dedup
module Net_churn = Renaming_service.Net_churn
module Net_campaign = Renaming_service.Net_campaign
module Clock = Renaming_clock.Clock
module Xoshiro = Renaming_rng.Xoshiro
module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics

let check = Alcotest.check

let manual_clock () =
  let t = ref 0.0 in
  (t, Clock.of_fn ~label:"test-manual" (fun () -> !t))

(* ------------------------------------------------------------------ *)
(* Heap: deterministic pop order, ties broken by insertion sequence.  *)

let test_heap_deterministic_order () =
  let h = Heap.create () in
  List.iter (fun (time, v) -> Heap.push h ~time v)
    [ (3.0, "late"); (1.0, "first"); (2.0, "mid"); (1.0, "second") ];
  check Alcotest.int "size" 4 (Heap.size h);
  check (Alcotest.float 1e-9) "min time" 1.0 (Heap.min_time h);
  let drain = ref [] in
  let rec go () =
    match Heap.pop h with
    | Some (_, v) -> drain := v :: !drain; go ()
    | None -> ()
  in
  go ();
  check Alcotest.(list string) "FIFO within equal times"
    [ "first"; "second"; "mid"; "late" ] (List.rev !drain);
  check Alcotest.bool "empty after drain" true (Heap.is_empty h)

(* ------------------------------------------------------------------ *)
(* Lease table: capacity, fencing, release epoch bump.                *)

let test_lease_capacity_and_release () =
  let rng = Xoshiro.create 7L in
  let lease = Lease.create (Lease.make_config ~capacity:2 ~ttl:10.0 ()) in
  let grant session =
    match Lease.acquire lease ~session ~now:0.0 ~rng with
    | Ok g -> g.Lease.g_fence
    | Error `At_capacity -> Alcotest.fail "unexpected At_capacity"
  in
  let f1 = grant 1 in
  let f2 = grant 2 in
  check Alcotest.int "held" 2 (Lease.held lease);
  check Alcotest.bool "distinct names" true (f1.Lease.f_name <> f2.Lease.f_name);
  (match Lease.acquire lease ~session:3 ~now:0.0 ~rng with
  | Error `At_capacity -> ()
  | Ok _ -> Alcotest.fail "third grant must hit capacity");
  (match Lease.release lease ~fence:f1 ~now:4.0 with
  | Ok dur -> check (Alcotest.float 1e-9) "held duration" 4.0 dur
  | Error `Fenced -> Alcotest.fail "live release fenced");
  (* The released fence is dead immediately: the epoch bumped. *)
  (match Lease.validate lease ~fence:f1 with
  | Error `Fenced -> ()
  | Ok () -> Alcotest.fail "released fence validated");
  (* Capacity is available again. *)
  let f3 = grant 3 in
  check Alcotest.bool "slot in range" true
    (f3.Lease.f_name >= 0 && f3.Lease.f_name < Lease.slots lease);
  check Alcotest.(option int) "holder tracked" (Some 3)
    (Lease.holder lease ~name:f3.Lease.f_name)

let test_lease_reclaim_skips_renewed () =
  let rng = Xoshiro.create 8L in
  let lease = Lease.create (Lease.make_config ~capacity:2 ~ttl:5.0 ()) in
  let fence s =
    match Lease.acquire lease ~session:s ~now:0.0 ~rng with
    | Ok g -> g.Lease.g_fence
    | Error `At_capacity -> Alcotest.fail "capacity"
  in
  let live = fence 1 in
  let dead = fence 2 in
  (* Renew the live one at t=4 (new expiry 9); leave the other to rot. *)
  (match Lease.renew lease ~fence:live ~now:4.0 with
  | Ok e -> check (Alcotest.float 1e-9) "renewed expiry" 9.0 e
  | Error `Fenced -> Alcotest.fail "live renew fenced");
  let reclaimed = Lease.reclaim_expired lease ~now:6.0 in
  check Alcotest.int "one lease reclaimed" 1 (List.length reclaimed);
  let r = List.hd reclaimed in
  check Alcotest.int "the unrenewed one" dead.Lease.f_session
    r.Lease.r_fence.Lease.f_session;
  check (Alcotest.float 1e-9) "lateness = now - expiry" 1.0 r.Lease.r_lateness;
  (match Lease.validate lease ~fence:live with
  | Ok () -> ()
  | Error `Fenced -> Alcotest.fail "renewed lease was revoked");
  (match Lease.validate lease ~fence:dead with
  | Error `Fenced -> ()
  | Ok () -> Alcotest.fail "reclaimed fence still validates")

(* ------------------------------------------------------------------ *)
(* Admission: shedding, queue bound, deadline expiry.                 *)

let test_admission_shed_and_expire () =
  let adm =
    Admission.create
      (Admission.make_config ~queue_limit:2 ~request_timeout:1.0 ~high_water:0.9 ())
  in
  (match Admission.offer adm ~session:1 ~now:0.0 ~utilization:0.95 with
  | Error Admission.High_water -> ()
  | _ -> Alcotest.fail "high utilization must shed");
  let t1 =
    match Admission.offer adm ~session:1 ~now:0.0 ~utilization:0.1 with
    | Ok t -> t
    | Error _ -> Alcotest.fail "offer 1"
  in
  (match Admission.offer adm ~session:2 ~now:0.2 ~utilization:0.1 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "offer 2");
  (match Admission.offer adm ~session:3 ~now:0.3 ~utilization:0.1 with
  | Error Admission.Queue_full -> ()
  | _ -> Alcotest.fail "bounded queue must refuse the third");
  check Alcotest.int "depth" 2 (Admission.depth adm);
  (* Take the head before it times out. *)
  check Alcotest.bool "head not overdue at 0.5" false (Admission.head_expired adm ~now:0.5);
  let w = Admission.pop adm in
  check Alcotest.int "head ticket" t1 w.Admission.w_ticket;
  check Alcotest.int "head session" 1 w.Admission.w_session;
  check (Alcotest.float 1e-9) "queued at" 0.0 w.Admission.w_enqueued;
  (* The second request (queued at 0.2, timeout 1.0) expires past 1.2. *)
  check Alcotest.bool "not overdue at 1.2" false (Admission.head_expired adm ~now:1.2);
  check Alcotest.bool "overdue at 2.0" true (Admission.head_expired adm ~now:2.0);
  let x = Admission.pop_expired adm in
  check Alcotest.int "expired session" 2 x.Admission.w_session;
  check Alcotest.int "expiry counted" 1 (Admission.expired_total adm);
  check Alcotest.int "queue drained" 0 (Admission.depth adm);
  check Alcotest.bool "an empty queue has no overdue head" false
    (Admission.head_expired adm ~now:2.0);
  match Admission.pop adm with
  | _ -> Alcotest.fail "pop on an empty queue"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Minter: global uniqueness across dispenser blocks.                 *)

let test_minter_unique_across_blocks () =
  let rng = Xoshiro.create 9L in
  let m = Minter.create ~block_capacity:8 ~rng () in
  let seen = Hashtbl.create 128 in
  for _ = 1 to 100 do
    let id = Minter.mint m in
    check Alcotest.bool "session id fresh" false (Hashtbl.mem seen id);
    Hashtbl.add seen id ()
  done;
  check Alcotest.int "minted" 100 (Minter.minted m);
  check Alcotest.bool "chained blocks" true (Minter.blocks m > 1);
  check Alcotest.bool "probes counted" true (Minter.probes m >= 100)

(* ------------------------------------------------------------------ *)
(* Audit mirror: each invariant fires on a contradicting stream.      *)

let expect_violation ~kind f =
  match f () with
  | () -> Alcotest.fail (Printf.sprintf "expected %s violation" kind)
  | exception Audit.Violation v ->
    check Alcotest.string "violation kind" kind v.kind

let fence ~name ~session ~epoch =
  { Lease.f_name = name; f_session = session; f_epoch = epoch }

let test_audit_catches_double_grant () =
  let a = Audit.create ~capacity:4 ~slots:8 () in
  Audit.observe a ~now:0.0
    (Audit.Granted { fence = fence ~name:0 ~session:1 ~epoch:1; expires = 10.0 });
  expect_violation ~kind:"double-grant" (fun () ->
      Audit.observe a ~now:1.0
        (Audit.Granted { fence = fence ~name:0 ~session:2 ~epoch:2; expires = 11.0 }))

let test_audit_catches_stale_accept () =
  let a = Audit.create ~capacity:4 ~slots:8 () in
  let f = fence ~name:3 ~session:1 ~epoch:1 in
  Audit.observe a ~now:0.0 (Audit.Granted { fence = f; expires = 2.0 });
  Audit.observe a ~now:5.0 (Audit.Reclaimed { fence = f; expired_at = 2.0 });
  expect_violation ~kind:"stale-accept" (fun () ->
      Audit.observe a ~now:6.0 (Audit.Validated { fence = f; accepted = true }))

let test_audit_catches_early_reclaim () =
  let a = Audit.create ~capacity:4 ~slots:8 () in
  let f = fence ~name:2 ~session:1 ~epoch:1 in
  Audit.observe a ~now:0.0 (Audit.Granted { fence = f; expires = 10.0 });
  expect_violation ~kind:"early-reclaim" (fun () ->
      Audit.observe a ~now:5.0 (Audit.Reclaimed { fence = f; expired_at = 10.0 }))

let test_audit_catches_time_regression () =
  let a = Audit.create ~capacity:4 ~slots:8 () in
  Audit.observe a ~now:5.0
    (Audit.Granted { fence = fence ~name:0 ~session:1 ~epoch:1; expires = 15.0 });
  expect_violation ~kind:"time-regression" (fun () ->
      Audit.observe a ~now:4.0
        (Audit.Granted { fence = fence ~name:1 ~session:2 ~epoch:1; expires = 14.0 }))

(* ------------------------------------------------------------------ *)
(* Service façade under a hand-driven clock.                          *)

let service ?(capacity = 2) ?(ttl = 10.0) ?(queue_limit = 4)
    ?(request_timeout = 1.5) ?(high_water = 1.5) () =
  let time, clock = manual_clock () in
  let cfg =
    Service.make_config
      ~lease:(Lease.make_config ~capacity ~ttl ())
      ~admission:
        (Admission.make_config ~queue_limit ~request_timeout ~high_water ())
      ()
  in
  (time, Service.create ~clock ~rng:(Xoshiro.create 21L) cfg)

let test_service_queue_then_reclaim_grant () =
  let time, svc = service ~ttl:5.0 () in
  let g session =
    match Service.acquire svc ~session with
    | Service.Granted g -> g.Lease.g_fence
    | _ -> Alcotest.fail "expected immediate grant"
  in
  let _f1 = g 1 in
  let _f2 = g 2 in
  let ticket =
    match Service.acquire svc ~session:3 with
    | Service.Queued t -> t
    | _ -> Alcotest.fail "expected queueing at capacity"
  in
  check Alcotest.int "queue depth" 1 (Service.queue_depth svc);
  check Alcotest.int "nothing to grant yet" 0 (List.length (Service.pump svc));
  (* Neither holder releases; their leases expire at t=5 and the queued
     request (timeout 1.5 — already overdue, but grants beat the check
     only if capacity frees first; here it timed out long before). *)
  time := 1.0;
  (match Service.pump svc with
  | [ Service.Timed_out _ ] -> Alcotest.fail "not yet overdue"
  | [] -> ()
  | _ -> Alcotest.fail "unexpected completions");
  time := 6.0;
  (match Service.pump svc with
  | [ Service.Timed_out { ticket = t; session; _ } ] ->
    check Alcotest.int "timed-out ticket" ticket t;
    check Alcotest.int "timed-out session" 3 session
  | _ -> Alcotest.fail "expected a request timeout");
  (* The two original leases were reclaimed by the same pump. *)
  check Alcotest.int "all reclaimed" 0 (Service.held svc);
  let s = Service.stats svc in
  check Alcotest.int "reclaims" 2 s.Service.reclaims;
  check Alcotest.int "expired requests" 1 s.Service.expired_requests;
  check Alcotest.int "audit live agrees" 0 (Service.audit_live svc)

let test_service_queue_drain_done () =
  let time, svc = service ~ttl:5.0 ~request_timeout:50.0 () in
  (match Service.acquire svc ~session:1 with
  | Service.Granted _ -> ()
  | _ -> Alcotest.fail "grant 1");
  (match Service.acquire svc ~session:2 with
  | Service.Granted _ -> ()
  | _ -> Alcotest.fail "grant 2");
  let ticket =
    match Service.acquire svc ~session:3 with
    | Service.Queued t -> t
    | _ -> Alcotest.fail "queue 3"
  in
  time := 6.0;
  (match Service.pump svc with
  | [ Service.Done { ticket = t; session; grant; waited } ] ->
    check Alcotest.int "done ticket" ticket t;
    check Alcotest.int "done session" 3 session;
    check (Alcotest.float 1e-9) "waited" 6.0 waited;
    check Alcotest.int "grant fence session" 3 grant.Lease.g_fence.Lease.f_session
  | _ -> Alcotest.fail "expected queued request granted after reclaim");
  check Alcotest.int "one live lease" 1 (Service.held svc)

let test_service_high_water_shed () =
  let _, svc = service ~capacity:4 ~high_water:0.5 () in
  (match Service.acquire svc ~session:1 with
  | Service.Granted _ -> ()
  | _ -> Alcotest.fail "grant 1");
  (match Service.acquire svc ~session:2 with
  | Service.Granted _ -> ()
  | _ -> Alcotest.fail "grant 2");
  (* utilization = 0.5 = high water: shed, do not queue. *)
  (match Service.acquire svc ~session:3 with
  | Service.Shed Admission.High_water -> ()
  | _ -> Alcotest.fail "expected high-water shed");
  let s = Service.stats svc in
  check Alcotest.int "shed counted" 1 s.Service.sheds_high_water;
  check Alcotest.int "nothing queued" 0 (Service.queue_depth svc)

let test_service_stale_fence_rejected () =
  let time, svc = service ~ttl:2.0 () in
  let f =
    match Service.acquire svc ~session:1 with
    | Service.Granted g -> g.Lease.g_fence
    | _ -> Alcotest.fail "grant"
  in
  time := 10.0;
  ignore (Service.pump svc);
  check Alcotest.int "reclaimed" 0 (Service.held svc);
  (match Service.use svc ~fence:f with
  | Error `Fenced -> ()
  | Ok () -> Alcotest.fail "stale use accepted");
  (match Service.renew svc ~fence:f with
  | Error `Fenced -> ()
  | Ok _ -> Alcotest.fail "stale renew accepted");
  (match Service.release svc ~fence:f with
  | Error `Fenced -> ()
  | Ok _ -> Alcotest.fail "stale release accepted");
  let s = Service.stats svc in
  check Alcotest.int "three fenced ops" 3 s.Service.fenced;
  (* The slot is reusable and the new fence does not revive the old. *)
  (match Service.acquire svc ~session:2 with
  | Service.Granted _ -> ()
  | _ -> Alcotest.fail "regrant after reclaim");
  (match Service.use svc ~fence:f with
  | Error `Fenced -> ()
  | Ok () -> Alcotest.fail "old fence revived by regrant")

(* The idle fast path: with nothing queued and no expiry due, [pump]
   returns [] and allocates nothing.  A queue alone, or an expiry alone,
   is enough to take the full path (the cases above cover both together
   and [stale fence] the expiry alone). *)
let test_service_pump_fast_path () =
  let minor_words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let time, svc = service ~capacity:2 ~ttl:5.0 ~request_timeout:1.5 () in
  let idle label =
    check Alcotest.int (label ^ ": nothing to do") 0 (List.length (Service.pump svc));
    match Sys.backend_type with
    | Sys.Native ->
      let empty = minor_words (fun () -> ()) in
      check (Alcotest.float 0.) (label ^ ": allocates nothing") empty
        (minor_words (fun () ->
             for _ = 1 to 1_000 do
               ignore (Sys.opaque_identity (Service.pump svc))
             done))
    | Sys.Bytecode | Sys.Other _ -> ()
  in
  idle "empty service";
  let grant session =
    match Service.acquire svc ~session with
    | Service.Granted _ -> ()
    | _ -> Alcotest.fail "expected immediate grant"
  in
  grant 1;
  grant 2;
  time := 1.0;
  idle "leases live, queue empty";
  (* A non-empty queue with no expiry due: the overdue request times
     out. *)
  (match Service.acquire svc ~session:3 with
  | Service.Queued _ -> ()
  | _ -> Alcotest.fail "expected queueing at capacity");
  time := 3.0;
  (match Service.pump svc with
  | [ Service.Timed_out { session = 3; _ } ] -> ()
  | _ -> Alcotest.fail "queued request must time out");
  check Alcotest.int "no reclaim before expiry" 0 (Service.stats svc).Service.reclaims;
  idle "after the timeout";
  (* An expiry due with an empty queue: both leases are reclaimed. *)
  time := 5.0;
  check Alcotest.int "expiry pump returns nothing" 0 (List.length (Service.pump svc));
  check Alcotest.int "both reclaimed" 2 (Service.stats svc).Service.reclaims;
  check Alcotest.int "nothing held" 0 (Service.held svc);
  idle "after reclaim"

(* The saturated fast path: every lease held, requests queued, none
   past its deadline and no expiry due.  [pump] has nothing to complete,
   returns [] and allocates nothing, and the queue is left intact. *)
let test_service_saturated_pump_allocates_nothing () =
  let time, svc = service ~capacity:2 ~ttl:10.0 ~queue_limit:4 ~request_timeout:1.5 () in
  List.iter
    (fun session ->
      match Service.acquire svc ~session with
      | Service.Granted _ -> ()
      | _ -> Alcotest.fail "expected immediate grant")
    [ 1; 2 ];
  List.iter
    (fun session ->
      match Service.acquire svc ~session with
      | Service.Queued _ -> ()
      | _ -> Alcotest.fail "expected queueing at capacity")
    [ 3; 4 ];
  time := 1.0;
  check Alcotest.int "saturated: nothing to do" 0 (List.length (Service.pump svc));
  (match Sys.backend_type with
  | Sys.Native ->
    let words f =
      let w0 = Gc.minor_words () in
      f ();
      Gc.minor_words () -. w0
    in
    let empty = words (fun () -> ()) in
    check (Alcotest.float 0.) "saturated: allocates nothing" empty
      (words (fun () ->
           for _ = 1 to 1_000 do
             ignore (Sys.opaque_identity (Service.pump svc))
           done))
  | Sys.Bytecode | Sys.Other _ -> ());
  check Alcotest.int "queue intact" 2 (Service.queue_depth svc);
  check Alcotest.int "still saturated" 2 (Service.held svc);
  (* Past the head's deadline the same pump does work again. *)
  time := 1.6;
  match Service.pump svc with
  | [ Service.Timed_out { session = 3; _ }; Service.Timed_out { session = 4; _ } ] -> ()
  | _ -> Alcotest.fail "overdue requests must time out, oldest first"

(* A scripted saturated sequence, pinned: every pump's completions in
   order, with tickets, sessions, waits and the grants' names, epochs
   and probe counts.  Timed-out requests come before grants, each group
   in FIFO order, and the grants follow the service RNG's draw order. *)
let render_completion = function
  | Service.Timed_out { ticket; session; waited } ->
    Printf.sprintf "timeout t%d s%d w%.6g" ticket session waited
  | Service.Done { ticket; session; grant; waited } ->
    let f = grant.Lease.g_fence in
    Printf.sprintf "done t%d s%d w%.6g name%d epoch%d probes%d" ticket session waited
      f.Lease.f_name f.Lease.f_epoch grant.Lease.g_probes

let test_service_saturated_golden () =
  let time, svc = service ~capacity:2 ~ttl:10.0 ~queue_limit:8 ~high_water:2.0 () in
  let fence session =
    match Service.acquire svc ~session with
    | Service.Granted g -> g.Lease.g_fence
    | _ -> Alcotest.fail "expected immediate grant"
  in
  let queue session =
    match Service.acquire svc ~session with
    | Service.Queued _ -> ()
    | _ -> Alcotest.fail "expected queueing"
  in
  let release f =
    match Service.release svc ~fence:f with
    | Ok _ -> ()
    | Error `Fenced -> Alcotest.fail "live release fenced"
  in
  let log = ref [] in
  let pump at =
    time := at;
    let r = List.map render_completion (Service.pump svc) in
    log := !log @ [ Printf.sprintf "pump@%g: [%s]" at (String.concat "; " r) ]
  in
  let f1 = fence 1 in
  let f2 = fence 2 in
  time := 0.5;
  queue 3;
  time := 0.7;
  queue 4;
  pump 1.0;
  time := 1.2;
  release f1;
  time := 1.3;
  queue 5;
  time := 2.1;
  queue 6;
  time := 2.3;
  release f2;
  pump 2.3;
  time := 2.5;
  queue 7;
  pump 3.0;
  pump 4.5;
  time := 11.0;
  queue 8;
  pump 12.3;
  check Alcotest.(list string) "completions"
    [
      "pump@1: []";
      "pump@2.3: [timeout t0 s3 w1.8; timeout t1 s4 w1.6; done t2 s5 w1 name2 epoch3 probes1; \
       done t3 s6 w0.2 name0 epoch1 probes1]";
      "pump@3: []";
      "pump@4.5: [timeout t4 s7 w2]";
      "pump@12.3: [done t5 s8 w1.3 name1 epoch3 probes1]";
    ]
    !log

(* ------------------------------------------------------------------ *)
(* Churn driver, service preset: deterministic, safe, and it actually  *)
(* reclaims.                                                           *)

(* The service preset at test size: 12 names over the smallest router, a
   perfect network, no node faults. *)
let churn_config () =
  Net_churn.make_config ~clients:24 ~sessions_target:400 ~faults:Transport.perfect
    ~router:
      (Net_campaign.service_router ~slice_capacity:6 ~queue_limit:8 ~request_timeout:3.0 ())
    ~renew_every:2.0 ~crash_rate:0.4 ~stale_wakeup:0.5 ~mean_hold:4.0 ~mean_think:2.0
    ~client_restart_delay:5.0 ()

let test_churn_safety_and_reclaim () =
  let cfg = churn_config () in
  let s = Net_churn.run cfg ~seed:42L in
  check Alcotest.(option (pair string string)) "no audit violation" None s.Net_churn.violation;
  check Alcotest.int "no cross-shard uniqueness breach" 0 s.Net_churn.gaudit_violations;
  check Alcotest.bool "no livelock" false s.Net_churn.livelocked;
  check Alcotest.bool "sessions ran" true (s.Net_churn.sessions >= 400);
  check Alcotest.bool "crashes happened" true (s.Net_churn.client_crashes > 0);
  check Alcotest.bool "names reclaimed" true (s.Net_churn.service.Service.reclaims > 0);
  check Alcotest.int "every stale op fenced" s.Net_churn.stale_ops s.Net_churn.stale_fenced;
  check Alcotest.bool "stale wakeups exercised" true (s.Net_churn.stale_ops > 0);
  check Alcotest.int "no live-path fencing" 0 s.Net_churn.unexpected_fenced;
  let r = cfg.Net_churn.router in
  check Alcotest.bool "capacity respected" true
    (s.Net_churn.peak_held <= r.Router.slices * r.Router.slice_capacity)

let test_churn_deterministic () =
  let a = Net_churn.run (churn_config ()) ~seed:11L in
  let b = Net_churn.run (churn_config ()) ~seed:11L in
  check Alcotest.int "sessions" a.Net_churn.sessions b.Net_churn.sessions;
  check Alcotest.int "crashes" a.Net_churn.client_crashes b.Net_churn.client_crashes;
  check Alcotest.int "restarts" a.Net_churn.client_restarts b.Net_churn.client_restarts;
  check Alcotest.int "stale ops" a.Net_churn.stale_ops b.Net_churn.stale_ops;
  check Alcotest.int "resends" a.Net_churn.resends b.Net_churn.resends;
  check Alcotest.int "events" a.Net_churn.events b.Net_churn.events;
  check (Alcotest.float 1e-9) "sim time" a.Net_churn.sim_time b.Net_churn.sim_time;
  check Alcotest.int "grants" a.Net_churn.service.Service.grants
    b.Net_churn.service.Service.grants;
  check Alcotest.int "reclaims" a.Net_churn.service.Service.reclaims
    b.Net_churn.service.Service.reclaims;
  check Alcotest.int "sheds"
    (a.Net_churn.service.Service.sheds_high_water + a.Net_churn.service.Service.sheds_queue_full)
    (b.Net_churn.service.Service.sheds_high_water + b.Net_churn.service.Service.sheds_queue_full)

(* ------------------------------------------------------------------ *)
(* QCheck properties (the ISSUE's S3 trio).                           *)

let qcheck_expiry_monotone =
  QCheck.Test.make ~count:60
    ~name:"lease expiry is monotone under renewals on an advancing clock"
    (QCheck.pair QCheck.small_int
       (QCheck.list_of_size (QCheck.Gen.int_range 1 30) (QCheck.int_range 0 400)))
    (fun (seed, steps) ->
      QCheck.assume (steps <> []);
      let rng = Xoshiro.create (Int64.of_int (succ seed)) in
      let ttl = 5.0 in
      let lease = Lease.create (Lease.make_config ~capacity:4 ~ttl ()) in
      match Lease.acquire lease ~session:1 ~now:0.0 ~rng with
      | Error `At_capacity -> false
      | Ok g ->
        let fence = g.Lease.g_fence in
        let now = ref 0.0 and last = ref ttl in
        List.for_all
          (fun centis ->
            now := !now +. (float_of_int centis /. 100.);
            (* Never reclaimed, so the lenient renew must accept even
               past expiry, and each new expiry is >= the previous. *)
            match Lease.renew lease ~fence ~now:!now with
            | Error `Fenced -> false
            | Ok expires ->
              let ok = expires >= !last && expires = !now +. ttl in
              last := expires;
              ok)
          steps)

let qcheck_reclaim_never_revokes_renewed =
  QCheck.Test.make ~count:60
    ~name:"reclamation never revokes a lease that keeps renewing"
    (QCheck.pair QCheck.small_int
       (QCheck.list_of_size (QCheck.Gen.int_range 1 25) (QCheck.int_range 1 99)))
    (fun (seed, jitters) ->
      QCheck.assume (jitters <> []);
      let rng = Xoshiro.create (Int64.of_int (seed + 101)) in
      let ttl = 2.0 in
      let lease = Lease.create (Lease.make_config ~capacity:6 ~ttl ()) in
      (* A victim that never renews keeps the reclaimer genuinely busy. *)
      (match Lease.acquire lease ~session:99 ~now:0.0 ~rng with
      | Ok _ -> ()
      | Error `At_capacity -> assert false);
      match Lease.acquire lease ~session:1 ~now:0.0 ~rng with
      | Error `At_capacity -> false
      | Ok g ->
        let fence = g.Lease.g_fence in
        let now = ref 0.0 in
        List.for_all
          (fun pct ->
            (* Advance by strictly less than ttl, renew first, then let
               the reclaimer sweep at the same instant. *)
            now := !now +. (ttl *. float_of_int pct /. 100.);
            match Lease.renew lease ~fence ~now:!now with
            | Error `Fenced -> false
            | Ok _ ->
              let reclaimed = Lease.reclaim_expired lease ~now:!now in
              List.for_all
                (fun r -> r.Lease.r_fence.Lease.f_session <> 1)
                reclaimed
              && (match Lease.validate lease ~fence with
                 | Ok () -> true
                 | Error `Fenced -> false))
          jitters
        && Lease.holder lease ~name:fence.Lease.f_name = Some 1)

let qcheck_stale_fence_never_writes =
  QCheck.Test.make ~count:60
    ~name:"a fenced stale client can never write after reclamation"
    QCheck.(pair small_int (int_range 0 500))
    (fun (seed, extra_centis) ->
      let rng = Xoshiro.create (Int64.of_int (seed + 211)) in
      let ttl = 1.0 in
      let lease = Lease.create (Lease.make_config ~capacity:4 ~ttl ()) in
      match Lease.acquire lease ~session:1 ~now:0.0 ~rng with
      | Error `At_capacity -> false
      | Ok g ->
        let fence = g.Lease.g_fence in
        let now = ttl +. (float_of_int extra_centis /. 100.) in
        let reclaimed = Lease.reclaim_expired lease ~now in
        List.exists (fun r -> r.Lease.r_fence = fence) reclaimed
        && Lease.held lease = 0
        (* Every path a stale client could write through is fenced. *)
        && (match Lease.renew lease ~fence ~now with
           | Error `Fenced -> true
           | Ok _ -> false)
        && (match Lease.validate lease ~fence with
           | Error `Fenced -> true
           | Ok () -> false)
        && (match Lease.release lease ~fence ~now with
           | Error `Fenced -> true
           | Ok _ -> false)
        (* ... and stays fenced even after the slot is regranted. *)
        && (match Lease.acquire lease ~session:2 ~now ~rng with
           | Error `At_capacity -> false
           | Ok _ -> (
             match Lease.validate lease ~fence with
             | Error `Fenced -> true
             | Ok () -> false)))

(* ------------------------------------------------------------------ *)
(* Heap compaction: dead entries dropped, survivors keep their keys.   *)

let test_heap_compact_preserves_order () =
  let h = Heap.create () in
  List.iter (fun (t, v) -> Heap.push h ~time:t v)
    [ (3.0, 0); (1.0, 1); (2.0, 2); (1.0, 3); (2.0, 4); (5.0, 5) ];
  (* Keep the odd values; note 1 and 3 tie on time and must stay in
     insertion order after compaction. *)
  Heap.compact h ~live:(fun ~time:_ v -> v mod 2 = 1);
  check Alcotest.int "compacted size" 3 (Heap.size h);
  let drain = ref [] in
  let rec go () =
    match Heap.pop h with Some (_, v) -> drain := v :: !drain; go () | None -> ()
  in
  go ();
  check Alcotest.(list int) "pop order of survivors" [ 1; 3; 5 ] (List.rev !drain)

let qcheck_compact_preserves_pop_order =
  QCheck.Test.make ~count:300 ~name:"heap compaction preserves pop order"
    QCheck.(small_list (pair (int_range 0 12) bool))
    (fun entries ->
      (* Two heaps with identical push sequences; one is compacted to
         its live subset.  Popping both must agree on the live entries,
         ties and all — compaction may not disturb (time, seq) keys. *)
      let reference = Heap.create () in
      let compacted = Heap.create () in
      List.iteri
        (fun i (t, alive) ->
          let time = float_of_int t in
          Heap.push reference ~time (i, alive);
          Heap.push compacted ~time (i, alive))
        entries;
      Heap.compact compacted ~live:(fun ~time:_ (_, alive) -> alive);
      let drain h =
        let out = ref [] in
        let rec go () =
          match Heap.pop h with Some (t, v) -> out := (t, v) :: !out; go () | None -> ()
        in
        go ();
        List.rev !out
      in
      let live_reference =
        List.filter (fun (_, (_, alive)) -> alive) (drain reference)
      in
      drain compacted = live_reference)

(* A reference model for the heap: a list of (time, seq, value) kept
   sorted, driven through random interleavings of every operation.
   After each one, pop order, [min_time], [size] and [due] (against a
   stamp taken at a random earlier point) must agree with the model. *)
type heap_op = H_push of int | H_take | H_pop | H_stamp | H_due of int | H_compact of int

let heap_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun t -> H_push t) (int_range 0 9));
        (2, return H_take);
        (2, return H_pop);
        (1, return H_stamp);
        (2, map (fun t -> H_due t) (int_range 0 10));
        (1, map (fun m -> H_compact m) (int_range 2 4));
      ])

let pp_heap_op = function
  | H_push t -> Printf.sprintf "push %d" t
  | H_take -> "take"
  | H_pop -> "pop"
  | H_stamp -> "stamp"
  | H_due t -> Printf.sprintf "due %d" t
  | H_compact m -> Printf.sprintf "compact %d" m

let qcheck_heap_reference_model =
  QCheck.Test.make ~count:500 ~name:"heap agrees with a sorted-list reference model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_heap_op ops))
       QCheck.Gen.(list_size (int_range 0 120) heap_op_gen))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] and next_seq = ref 0 and saved = ref 0 in
      let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt in
      let insert ((t, s, _) as e) =
        let rec go = function
          | [] -> [ e ]
          | ((t', s', _) as x) :: rest ->
            if t < t' || (t = t' && s < s') then e :: x :: rest else x :: go rest
        in
        model := go !model
      in
      List.iter
        (fun op ->
          (match op with
          | H_push t ->
            (* Values are the push index, so every entry is distinct. *)
            let v = !next_seq in
            Heap.push h ~time:(float_of_int t) v;
            insert (float_of_int t, !next_seq, v);
            incr next_seq
          | H_take -> (
            match !model with
            | [] -> (
              match Heap.take h with
              | _ -> fail "take on an empty heap returned"
              | exception Invalid_argument _ -> ())
            | (_, _, v) :: rest ->
              let got = Heap.take h in
              if got <> v then fail "take: got %d, model %d" got v;
              model := rest)
          | H_pop -> (
            match (!model, Heap.pop h) with
            | [], None -> ()
            | (t, _, v) :: rest, Some (t', v') ->
              if t <> t' || v <> v' then fail "pop: got (%g, %d), model (%g, %d)" t' v' t v;
              model := rest
            | _ -> fail "pop: emptiness disagrees")
          | H_stamp ->
            saved := Heap.stamp h;
            if !saved <> !next_seq then fail "stamp %d, model %d" !saved !next_seq
          | H_due now ->
            let now = float_of_int now in
            let want = match !model with (t, s, _) :: _ -> t <= now && s < !saved | [] -> false in
            if Heap.due h ~now ~before:!saved <> want then fail "due %g disagrees" now
          | H_compact m ->
            let times = Hashtbl.create 16 in
            List.iter (fun (t, _, v) -> Hashtbl.replace times v t) !model;
            Heap.compact h ~live:(fun ~time v ->
                if Hashtbl.find_opt times v <> Some time then fail "compact saw a wrong time";
                v mod m <> 0);
            model := List.filter (fun (_, _, v) -> v mod m <> 0) !model);
          let want_min = match !model with (t, _, _) :: _ -> t | [] -> infinity in
          if Heap.min_time h <> want_min then fail "min_time %g, model %g" (Heap.min_time h) want_min;
          if Heap.size h <> List.length !model then fail "size %d, model %d" (Heap.size h) (List.length !model);
          if Heap.is_empty h <> (!model = []) then fail "is_empty disagrees")
        ops;
      (* Whatever is left drains in model order. *)
      List.iter
        (fun (_, _, v) -> if Heap.take h <> v then fail "final drain order")
        !model;
      true)

(* Once the arrays have grown, [push] allocates nothing: no entry
   record, no boxed time.  The times are boxed before the measurement
   (a float crossing a call the compiler does not inline is boxed by
   the caller), so the count is the heap's own.  Native only: bytecode
   boxes every float it touches. *)
let test_heap_push_allocates_nothing () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()
  | Sys.Native ->
    let n = 1_000 in
    let h = Heap.create () in
    let times = List.init n (fun i -> float_of_int ((i * 7919) mod 97)) in
    let push_one i time = Heap.push h ~time i in
    let fill () = List.iteri push_one times in
    fill ();
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Heap.take h))
    done;
    let words f =
      let w0 = Gc.minor_words () in
      f ();
      Gc.minor_words () -. w0
    in
    let empty = words (fun () -> ()) in
    check (Alcotest.float 0.) "push" empty (words fill);
    check Alcotest.int "all pushed" n (Heap.size h);
    check (Alcotest.float 0.) "take" empty
      (words (fun () ->
           for _ = 1 to n do
             ignore (Sys.opaque_identity (Heap.take h))
           done))

let test_lease_heap_compaction () =
  let rng = Xoshiro.create 11L in
  let lease = Lease.create (Lease.make_config ~capacity:4 ~ttl:10.0 ()) in
  let fence =
    match Lease.acquire lease ~session:1 ~now:0.0 ~rng with
    | Ok g -> g.Lease.g_fence
    | Error `At_capacity -> Alcotest.fail "capacity"
  in
  (* Every renew lazily abandons its previous heap entry; long-lived
     renewing leases are exactly the workload that bloats the heap. *)
  for i = 1 to 120 do
    match Lease.renew lease ~fence ~now:(0.05 *. float_of_int i) with
    | Ok _ -> ()
    | Error `Fenced -> Alcotest.fail "live renew fenced"
  done;
  check Alcotest.bool "compaction triggered" true (Lease.compactions lease >= 1);
  check Alcotest.bool "heap bounded"
    true
    (Lease.pending_expiries lease <= 33);
  (* Compaction must not have disturbed the lease itself. *)
  (match Lease.validate lease ~fence with
  | Ok () -> ()
  | Error `Fenced -> Alcotest.fail "compaction killed a live lease");
  check Alcotest.int "nothing reclaimable before expiry" 0
    (List.length (Lease.reclaim_expired lease ~now:10.0));
  let reclaimed = Lease.reclaim_expired lease ~now:16.1 in
  check Alcotest.int "reclaimed after expiry" 1 (List.length reclaimed)

(* ------------------------------------------------------------------ *)
(* Audit counters surface through the metrics registry.               *)

let test_audit_metrics_counters () =
  let obs = Obs.create () in
  let _t, clock = manual_clock () in
  let rng = Xoshiro.create 13L in
  let svc =
    Service.create ~obs ~clock ~rng
      {
        Service.lease = Lease.make_config ~capacity:4 ~ttl:10.0 ();
        admission = Admission.make_config ();
      }
  in
  let fence =
    match Service.acquire svc ~session:1 with
    | Service.Granted g -> g.Lease.g_fence
    | _ -> Alcotest.fail "grant"
  in
  (match Service.release svc ~fence with
  | Ok _ -> ()
  | Error `Fenced -> Alcotest.fail "live release fenced");
  (* The replayed fence is stale: rejected, and a near miss the audit
     mirror confirms was correctly rejected. *)
  (match Service.release svc ~fence with
  | Error `Fenced -> ()
  | Ok _ -> Alcotest.fail "stale release accepted");
  let near = Service.audit_near_misses svc in
  check Alcotest.bool "near miss recorded" true (near >= 1);
  check Alcotest.int "audit/near_misses counter mirrors accessor" near
    (Option.value ~default:(-1)
       (Metrics.find_counter (Obs.metrics obs) "audit/near_misses"));
  check Alcotest.(option int) "audit/violations counter present and zero" (Some 0)
    (Metrics.find_counter (Obs.metrics obs) "audit/violations");
  check Alcotest.int "no violation" 0 (Service.audit_violations svc)

(* ------------------------------------------------------------------ *)
(* Router: epoch-fenced slice handoff and degraded-mode routing.      *)

let router_cfg () =
  Router.make_config ~shards:4 ~slices:8 ~slice_capacity:4 ~ttl:10.0 ~grace:12.0
    ~auto_rebalance:false ()

let router_fixture () =
  let t, clock = manual_clock () in
  (t, Router.create ~clock ~seed:42L (router_cfg ()))

let grant_on r ~session ~key =
  match Router.acquire r ~session ~key with
  | Router.Granted g -> g
  | _ -> Alcotest.fail "expected a grant"

let test_router_clean_handoff_keeps_leases () =
  let t, r = router_fixture () in
  let g = grant_on r ~session:1 ~key:0 in
  check Alcotest.int "initial owner is shard 0" 0 g.Router.sg_shard;
  let fence = Router.fence_of_grant g in
  (match Router.begin_handoff r ~slice:0 ~to_:1 with
  | Ok () -> ()
  | Error `Unavailable -> Alcotest.fail "handoff refused");
  (* A same-instant pump leaves the transit pending (the crash-injection
     window); mid-transit operations are structured busies, not hangs. *)
  ignore (Router.pump r);
  check Alcotest.bool "still in transit" true (Router.in_transit r <> []);
  (match Router.renew r ~fence with
  | Error (`Busy (Router.In_handoff { slice = 0 })) -> ()
  | _ -> Alcotest.fail "mid-transit renew must be In_handoff");
  (match Router.acquire r ~session:2 ~key:0 with
  | Router.Busy (Router.In_handoff _) -> ()
  | _ -> Alcotest.fail "mid-transit acquire must be In_handoff");
  t := 1.0;
  ignore (Router.pump r);
  check Alcotest.(option int) "ownership moved" (Some 1) (Router.owner r ~slice:0);
  check Alcotest.int "epoch bumped with the transfer" 1 (Router.slice_epoch r ~slice:0);
  (* The body moved intact: the pre-handoff lease renews at the new
     shard without ever being fenced. *)
  (match Router.renew r ~fence with
  | Ok _ -> ()
  | _ -> Alcotest.fail "clean handoff broke a live lease");
  let st = Router.stats r in
  check Alcotest.int "one completed handoff" 1 st.Router.handoffs_completed;
  (* A client holding the stale owner hint is redirected, with the
     fresh owner in the payload. *)
  (match Router.acquire ~hint:0 r ~session:3 ~key:0 with
  | Router.Busy (Router.Redirected { shard = 1 }) -> ()
  | _ -> Alcotest.fail "stale hint must redirect");
  match Router.acquire ~hint:1 r ~session:3 ~key:0 with
  | Router.Granted g' -> check Alcotest.int "granted at new owner" 1 g'.Router.sg_shard
  | _ -> Alcotest.fail "fresh hint must grant"

let test_router_src_crash_orphans_then_adopts () =
  let t, r = router_fixture () in
  let g = grant_on r ~session:1 ~key:0 in
  let fence = Router.fence_of_grant g in
  (match Router.begin_handoff r ~slice:0 ~to_:1 with
  | Ok () -> ()
  | Error `Unavailable -> Alcotest.fail "handoff refused");
  Router.crash_shard r ~id:0;
  ignore (Router.pump r);
  (* The body died with its shard: the slice is dark, every operation
     resolves to a structured outcome. *)
  (match Router.acquire r ~session:2 ~key:0 with
  | Router.Busy (Router.Shard_down _) -> ()
  | _ -> Alcotest.fail "orphaned acquire must be Shard_down");
  (match Router.renew r ~fence with
  | Error (`Busy (Router.Shard_down _)) -> ()
  | _ -> Alcotest.fail "orphaned renew must be Shard_down");
  check Alcotest.int "orphaned mid-transit" 1 (Router.stats r).Router.handoffs_orphaned;
  (* Before the grace nothing may be absorbed (the lost body's leases
     could still be live); after it, a survivor adopts a fresh table. *)
  t := 5.0;
  ignore (Router.pump r);
  check Alcotest.int "no early adoption" 0 (Router.stats r).Router.adoptions;
  t := 12.5;
  ignore (Router.pump r);
  (* Shard 0 owned two slices (8 slices over 4 shards): the in-transit
     one and a sibling, both orphaned by the crash, both adopted. *)
  check Alcotest.int "adopted after grace" 2 (Router.stats r).Router.adoptions;
  (match Router.owner r ~slice:0 with
  | Some s -> check Alcotest.bool "adopted by a survivor" true (s <> 0)
  | None -> Alcotest.fail "slice still dark after grace");
  (* The old incarnation's fence is dead at the fresh body... *)
  (match Router.renew r ~fence with
  | Error `Fenced -> ()
  | _ -> Alcotest.fail "pre-crash fence must be fenced after adoption");
  (* ...and the slice serves again. *)
  match Router.acquire r ~session:3 ~key:0 with
  | Router.Granted _ -> ()
  | _ -> Alcotest.fail "adopted slice must serve"

let test_router_dst_crash_aborts_handoff () =
  let t, r = router_fixture () in
  let g = grant_on r ~session:1 ~key:0 in
  let fence = Router.fence_of_grant g in
  (match Router.begin_handoff r ~slice:0 ~to_:1 with
  | Ok () -> ()
  | Error `Unavailable -> Alcotest.fail "handoff refused");
  Router.crash_shard r ~id:1;
  t := 1.0;
  ignore (Router.pump r);
  (* The destination died: the source keeps the slice under a bumped
     epoch and nothing is stranded or fenced. *)
  check Alcotest.(option int) "source kept the slice" (Some 0) (Router.owner r ~slice:0);
  check Alcotest.int "epoch bumped on abort" 1 (Router.slice_epoch r ~slice:0);
  check Alcotest.int "aborted" 1 (Router.stats r).Router.handoffs_aborted;
  match Router.renew r ~fence with
  | Ok _ -> ()
  | _ -> Alcotest.fail "aborted handoff broke a live lease"

(* The churn driver pumps the router before every event, so a pump
   with nothing due must cost no allocation, whichever passes are on. *)
let test_router_idle_pump_allocates_nothing () =
  List.iter
    (fun (auto_rebalance, detector) ->
      let label =
        Printf.sprintf "rebalance=%b detector=%b" auto_rebalance detector
      in
      let t, clock = manual_clock () in
      let r =
        Router.create ~clock ~seed:42L
          (Router.make_config ~shards:4 ~slices:8 ~slice_capacity:4 ~ttl:10.0 ~grace:12.0
             ~auto_rebalance ())
      in
      if detector then Router.enable_detector r ~suspicion:5.0;
      ignore (grant_on r ~session:1 ~key:0);
      ignore (grant_on r ~session:2 ~key:5);
      t := 1.0;
      check Alcotest.int (label ^ ": nothing due") 0 (List.length (Router.pump r));
      match Sys.backend_type with
      | Sys.Native ->
        let w0 = Gc.minor_words () in
        for _ = 1 to 1_000 do
          ignore (Sys.opaque_identity (Router.pump r))
        done;
        check (Alcotest.float 0.) (label ^ ": allocates nothing") 0.
          (Gc.minor_words () -. w0)
      | Sys.Bytecode | Sys.Other _ -> ())
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_router_stall_heals () =
  let t, r = router_fixture () in
  let _g = grant_on r ~session:1 ~key:0 in
  Router.stall_shard r ~id:0 ~until:2.0;
  (match Router.acquire r ~session:2 ~key:0 with
  | Router.Busy (Router.Shard_down { shard = 0 }) -> ()
  | _ -> Alcotest.fail "stalled acquire must be Shard_down");
  t := 2.5;
  ignore (Router.pump r);
  (* The stall was shorter than the grace: the shard serves again with
     its bodies (and their leases) intact. *)
  match Router.acquire r ~session:2 ~key:0 with
  | Router.Granted g -> check Alcotest.int "same owner after wake" 0 g.Router.sg_shard
  | _ -> Alcotest.fail "healed shard must serve"

(* ------------------------------------------------------------------ *)
(* Churn driver, sharded preset: safety under shard faults, and       *)
(* determinism.                                                        *)

let shard_churn_cfg () =
  Net_churn.make_config ~clients:32 ~sessions_target:600 ~crash_rate:0.2
    ~faults:Transport.perfect
    ~handoff:{ Net_churn.h_every = 8.0; h_crash_src = 0.3; h_crash_dst = 0.2; h_restart = 30.0 }
    ~shard_crash:{ Net_churn.c_every = 20.0; c_restart = 30.0 }
    ()

let test_shard_churn_safety () =
  let s = Net_churn.run (shard_churn_cfg ()) ~seed:0xD15EA5EL in
  check Alcotest.int "all sessions ran" 600 s.Net_churn.sessions;
  check Alcotest.bool "no livelock" false s.Net_churn.livelocked;
  (match s.Net_churn.violation with
  | None -> ()
  | Some (kind, msg) -> Alcotest.fail (Printf.sprintf "audit violation %s: %s" kind msg));
  check Alcotest.int "no cross-shard uniqueness breach" 0 s.Net_churn.gaudit_violations;
  check Alcotest.int "no unexpected fences" 0 s.Net_churn.unexpected_fenced;
  check Alcotest.int "no fencing holes for ghosts" 0 s.Net_churn.stale_ok;
  check Alcotest.bool "faults actually injected" true
    (s.Net_churn.shard_crashes >= 2
    && s.Net_churn.router.Router.handoffs_started >= 1)

let test_shard_churn_deterministic () =
  let run () = Net_churn.run (shard_churn_cfg ()) ~seed:0xFACEL in
  let a = run () and b = run () in
  check Alcotest.bool "same seed, same summary" true (a = b);
  let c = Net_churn.run (shard_churn_cfg ()) ~seed:0xFACE2L in
  check Alcotest.bool "different seed, different trajectory" true
    (c.Net_churn.events <> a.Net_churn.events
    || c.Net_churn.resends <> a.Net_churn.resends
    || c.Net_churn.client_crashes <> a.Net_churn.client_crashes)

(* ------------------------------------------------------------------ *)
(* Transport: deterministic lossy messaging with bounded delivery.    *)

let lossy_faults () =
  Transport.make_faults ~drop:0.2 ~duplicate:0.2 ~delay_min:0.01 ~delay_max:0.3
    ~reorder:0.4 ~reorder_extra:0.5 ()

let test_transport_deterministic_and_bounded () =
  let run () =
    let tr = Transport.create ~faults:(lossy_faults ()) ~rng:(Xoshiro.create 77L) () in
    check (Alcotest.float 1e-9) "delivery bound exposed" 0.8 (Transport.max_delay tr);
    for i = 0 to 199 do
      Transport.send tr ~now:(float_of_int i *. 0.01) ~src:(Transport.Client i)
        ~dst:Transport.Router i
    done;
    let log = ref [] in
    let rec pump () =
      let at = Transport.next_delivery tr in
      if at < infinity then begin
        List.iter
          (fun (_, _, payload) -> log := (at, payload) :: !log)
          (Transport.deliver tr ~now:at);
        pump ()
      end
    in
    pump ();
    check Alcotest.int "drained" 0 (Transport.in_flight tr);
    (List.rev !log, Transport.stats tr)
  in
  let log_a, st_a = run () in
  let log_b, st_b = run () in
  check Alcotest.bool "same seed, same deliveries" true (log_a = log_b);
  check Alcotest.bool "same seed, same stats" true (st_a = st_b);
  check Alcotest.bool "drops fired" true (st_a.Transport.dropped > 0);
  check Alcotest.bool "duplicates fired" true (st_a.Transport.duplicated > 0);
  check Alcotest.bool "reorders fired" true (st_a.Transport.reordered > 0);
  (* Conservation: everything accepted (plus its duplicate copies) came
     out, and nothing took longer than the advertised bound. *)
  check Alcotest.int "delivered = sent + duplicated"
    (st_a.Transport.sent + st_a.Transport.duplicated)
    st_a.Transport.delivered;
  List.iter
    (fun (at, payload) ->
      let sent_at = float_of_int payload *. 0.01 in
      check Alcotest.bool "within max_delay of the send" true
        (at -. sent_at <= 0.8 +. 1e-9))
    log_a

(* [deliver] keeps its output byte for byte: the batches below are the
   ones the list-building implementation produced for this send
   sequence. *)
let test_transport_deliver_golden () =
  let tr = Transport.create ~faults:(lossy_faults ()) ~rng:(Xoshiro.create 77L) () in
  for i = 0 to 29 do
    let dst = if i mod 3 = 0 then Transport.Router else Transport.Shard (i mod 3) in
    Transport.send tr ~now:(float_of_int i *. 0.01) ~src:(Transport.Client i) ~dst i
  done;
  let c i = Transport.Client i and r = Transport.Router and sh i = Transport.Shard i in
  let expected =
    [
      [ (c 0, r, 0); (c 5, sh 2, 5) ];
      [ (c 15, r, 15) ];
      [ (c 4, sh 1, 4); (c 6, r, 6); (c 2, sh 2, 2); (c 12, r, 12); (c 28, sh 1, 28);
        (c 19, sh 1, 19); (c 22, sh 1, 22); (c 10, sh 1, 10); (c 4, sh 1, 4) ];
      [ (c 16, sh 1, 16); (c 22, sh 1, 22); (c 28, sh 1, 28); (c 18, r, 18); (c 9, r, 9);
        (c 23, sh 2, 23); (c 8, sh 2, 8); (c 1, sh 1, 1); (c 2, sh 2, 2); (c 21, r, 21);
        (c 12, r, 12); (c 26, sh 2, 26); (c 27, r, 27) ];
      [ (c 20, sh 2, 20); (c 20, sh 2, 20); (c 25, sh 1, 25); (c 29, sh 2, 29);
        (c 27, r, 27); (c 24, r, 24); (c 21, r, 21) ];
    ]
  in
  List.iter2
    (fun now batch ->
      check Alcotest.bool (Printf.sprintf "batch at %g" now) true
        (Transport.deliver tr ~now = batch))
    [ 0.1; 0.2; 0.35; 0.5; infinity ] expected;
  let st = Transport.stats tr in
  check Alcotest.(list int) "sent, delivered, dropped, duplicated, reordered, blocked"
    [ 24; 32; 6; 8; 15; 0 ]
    Transport.
      [ st.sent; st.delivered; st.dropped; st.duplicated; st.reordered; st.blocked ];
  check (Alcotest.float 0.) "nothing in flight" infinity (Transport.next_delivery tr)

(* Zero delay: a message sent from inside the callback is due at the
   same instant, yet waits for the next call, so one call delivers
   exactly the batch that was due when it started. *)
let test_transport_deliver_each_batch () =
  let tr = Transport.create ~faults:Transport.perfect ~rng:(Xoshiro.create 1L) () in
  Transport.send tr ~now:0. ~src:(Transport.Client 0) ~dst:Transport.Router "a";
  Transport.send tr ~now:0. ~src:(Transport.Client 1) ~dst:Transport.Router "b";
  let seen = ref [] in
  let echo _src _dst m =
    seen := m :: !seen;
    if String.length m = 1 then
      Transport.send tr ~now:0. ~src:Transport.Router ~dst:(Transport.Client 0) (m ^ "'")
  in
  Transport.deliver_each tr ~now:0. echo;
  check Alcotest.(list string) "first call: the two sends only" [ "a"; "b" ] (List.rev !seen);
  check Alcotest.int "the replies wait" 2 (Transport.in_flight tr);
  check (Alcotest.float 0.) "due now" 0. (Transport.next_delivery tr);
  seen := [];
  Transport.deliver_each tr ~now:0. (fun _ _ m -> seen := m :: !seen);
  check Alcotest.(list string) "second call: the replies" [ "a'"; "b'" ] (List.rev !seen);
  check Alcotest.int "delivered counted" 4 (Transport.stats tr).Transport.delivered

let test_transport_partition_directional () =
  let tr = Transport.create ~rng:(Xoshiro.create 5L) () in
  Transport.partition tr ~src:(Transport.Shard 0) ~dst:Transport.Router ~until:5.0;
  (* The rule is directional: shard->router heartbeats vanish while
     router->shard requests still flow. *)
  Transport.send tr ~now:1.0 ~src:(Transport.Shard 0) ~dst:Transport.Router "hb";
  Transport.send tr ~now:1.0 ~src:Transport.Router ~dst:(Transport.Shard 0) "req";
  let st = Transport.stats tr in
  check Alcotest.int "heartbeat blocked" 1 st.Transport.blocked;
  check Alcotest.int "reverse direction unaffected" 1 st.Transport.sent;
  check Alcotest.bool "partitioned while the deadline holds" true
    (Transport.partitioned tr ~now:4.9 ~src:(Transport.Shard 0) ~dst:Transport.Router);
  (* Deadline passes: the rule self-heals at send time. *)
  check Alcotest.bool "healed at the deadline" false
    (Transport.partitioned tr ~now:5.0 ~src:(Transport.Shard 0) ~dst:Transport.Router);
  Transport.send tr ~now:5.0 ~src:(Transport.Shard 0) ~dst:Transport.Router "hb2";
  check Alcotest.int "accepted after heal" 2 (Transport.stats tr).Transport.sent;
  (* An explicit heal removes a rule before its deadline. *)
  Transport.partition tr ~src:Transport.Router ~dst:(Transport.Shard 1) ~until:99.0;
  Transport.heal tr ~src:Transport.Router ~dst:(Transport.Shard 1);
  check Alcotest.bool "explicit heal" false
    (Transport.partitioned tr ~now:6.0 ~src:Transport.Router ~dst:(Transport.Shard 1))

(* ------------------------------------------------------------------ *)
(* Dedup: at-most-once verdicts and the bounded-window eviction hazard. *)

let test_dedup_verdicts () =
  let d = Dedup.create () in
  (match Dedup.admit d ~client:7 ~seq:1 ~now:0.0 with
  | Dedup.Fresh -> ()
  | _ -> Alcotest.fail "first delivery must be fresh");
  Dedup.record d ~client:7 ~seq:1 ~now:0.0 "granted:3";
  (* A retransmit replays the cached reply without re-executing. *)
  (match Dedup.admit d ~client:7 ~seq:1 ~now:0.5 with
  | Dedup.Replay r -> check Alcotest.string "cached reply" "granted:3" r
  | _ -> Alcotest.fail "retransmit must replay");
  (* The client moves on; a reordered straggler of seq 1 is stale. *)
  (match Dedup.admit d ~client:7 ~seq:2 ~now:1.0 with
  | Dedup.Fresh -> ()
  | _ -> Alcotest.fail "next sequence must be fresh");
  Dedup.record d ~client:7 ~seq:2 ~now:1.0 "queued";
  (match Dedup.admit d ~client:7 ~seq:1 ~now:1.5 with
  | Dedup.Stale -> ()
  | _ -> Alcotest.fail "overtaken duplicate must be stale");
  (* Re-recording the same sequence upgrades the cached reply (a queued
     request completing): later retransmits replay the final outcome. *)
  Dedup.record d ~client:7 ~seq:2 ~now:2.0 "granted:5";
  (match Dedup.admit d ~client:7 ~seq:2 ~now:2.5 with
  | Dedup.Replay r -> check Alcotest.string "upgraded reply" "granted:5" r
  | _ -> Alcotest.fail "final outcome must replay");
  let st = Dedup.stats d in
  check Alcotest.int "fresh" 2 st.Dedup.fresh;
  check Alcotest.int "replays" 2 st.Dedup.replays;
  check Alcotest.int "stale" 1 st.Dedup.stale

let test_dedup_eviction_window () =
  let d = Dedup.create ~window:5.0 () in
  (match Dedup.admit d ~client:1 ~seq:1 ~now:0.0 with
  | Dedup.Fresh -> Dedup.record d ~client:1 ~seq:1 ~now:0.0 "reply"
  | _ -> Alcotest.fail "fresh");
  check Alcotest.int "entry live" 1 (Dedup.entries d);
  check Alcotest.int "young entry survives" 0 (Dedup.sweep d ~now:4.0);
  check Alcotest.int "idle entry evicted" 1 (Dedup.sweep d ~now:6.0);
  check Alcotest.int "table empty" 0 (Dedup.entries d);
  (* This is exactly why the window must outlive the retry horizon plus
     the network's delivery bound: after eviction a late duplicate of
     seq 1 is indistinguishable from a new request and re-executes. *)
  (match Dedup.admit d ~client:1 ~seq:1 ~now:7.0 with
  | Dedup.Fresh -> ()
  | _ -> Alcotest.fail "post-eviction duplicate admits as fresh");
  check Alcotest.int "eviction counted" 1 (Dedup.stats d).Dedup.evictions

(* ------------------------------------------------------------------ *)
(* Failure detector: suspicion, recovery with re-own, incarnation.    *)

let detector_fixture () =
  let t, r = router_fixture () in
  Router.enable_detector r ~suspicion:2.0;
  (t, r)

let test_router_detector_suspicion_and_recovery () =
  let t, r = detector_fixture () in
  let g = grant_on r ~session:1 ~key:0 in
  let fence = Router.fence_of_grant g in
  t := 1.0;
  Router.heartbeat r ~shard:0 ~incarnation:0;
  t := 2.5;
  ignore (Router.pump r);
  check Alcotest.bool "fresh heartbeat keeps it available" false (Router.suspected r ~shard:0);
  (* Heartbeats go quiet: at last + suspicion the sweep flags the shard
     and routing stops forwarding, even though the body is fine. *)
  t := 3.5;
  ignore (Router.pump r);
  check Alcotest.bool "silence past suspicion" true (Router.suspected r ~shard:0);
  (match Router.route r ~slice:0 with
  | Error (Router.Shard_down _) -> ()
  | _ -> Alcotest.fail "suspected shard must not be routed to");
  (match Router.acquire r ~session:2 ~key:0 with
  | Router.Busy _ -> ()
  | _ -> Alcotest.fail "suspected acquire must be busy");
  (* A late heartbeat heals the false suspicion: the orphaned slices are
     handed back at the same epoch with every lease intact. *)
  t := 4.0;
  Router.heartbeat r ~shard:0 ~incarnation:0;
  check Alcotest.bool "suspicion cleared" false (Router.suspected r ~shard:0);
  let d = Option.get (Router.detector_stats r) in
  check Alcotest.bool "suspicion counted" true (d.Router.suspicions >= 1);
  check Alcotest.int "recovery counted" 1 d.Router.recoveries;
  check Alcotest.bool "slices re-owned" true (d.Router.reowns >= 1);
  check Alcotest.int "no incarnation orphans" 0 d.Router.incarnation_orphans;
  (match Router.renew r ~fence with
  | Ok _ -> ()
  | _ -> Alcotest.fail "false suspicion must never cost a live lease");
  match Router.acquire r ~session:3 ~key:0 with
  | Router.Granted _ -> ()
  | _ -> Alcotest.fail "recovered shard must serve"

let test_router_detector_incarnation_orphans () =
  let t, r = detector_fixture () in
  let g = grant_on r ~session:1 ~key:0 in
  let fence = Router.fence_of_grant g in
  t := 1.0;
  (* A higher incarnation number announces an amnesiac restart while the
     shard was never suspected: everything the previous incarnation
     owned is orphaned immediately — the detector cannot wait for the
     sweep, because the new incarnation heartbeats happily. *)
  Router.heartbeat r ~shard:0 ~incarnation:1;
  let d = Option.get (Router.detector_stats r) in
  check Alcotest.int "previous incarnation's slices orphaned" 2
    d.Router.incarnation_orphans;
  check Alcotest.int "not a suspicion" 0 d.Router.suspicions;
  (match Router.renew r ~fence with
  | Error (`Busy _) -> ()
  | _ -> Alcotest.fail "orphaned renew must be busy");
  (* After grace the orphans are adopted at a bumped epoch and the old
     incarnation's fence is dead.  Adoption runs on the detector view,
     so the survivors must be heartbeating to be eligible adopters. *)
  t := 14.0;
  for shard = 1 to 3 do
    Router.heartbeat r ~shard ~incarnation:0
  done;
  Router.heartbeat r ~shard:0 ~incarnation:1;
  ignore (Router.pump r);
  check Alcotest.bool "adopted after grace" true ((Router.stats r).Router.adoptions >= 1);
  match Router.renew r ~fence with
  | Error `Fenced -> ()
  | _ -> Alcotest.fail "pre-restart fence must be fenced after adoption"

(* ------------------------------------------------------------------ *)
(* Net churn: end-to-end safety over the lossy transport, determinism. *)

let net_churn_cfg () =
  Net_churn.make_config ~clients:24 ~sessions_target:400
    ~faults:
      (Transport.make_faults ~drop:0.05 ~duplicate:0.1 ~delay_min:0.01 ~delay_max:0.08
         ~reorder:0.15 ~reorder_extra:0.2 ())
    ~shard_crash:{ Net_churn.c_every = 30.0; c_restart = 2.0 }
    ()

let test_net_churn_safety () =
  let s = Net_churn.run (net_churn_cfg ()) ~seed:0xD15EA5EL in
  check Alcotest.int "all sessions ran" 400 s.Net_churn.sessions;
  check Alcotest.bool "no livelock" false s.Net_churn.livelocked;
  (match s.Net_churn.violation with
  | None -> ()
  | Some (kind, msg) -> Alcotest.fail (Printf.sprintf "audit violation %s: %s" kind msg));
  check Alcotest.int "at-most-once end to end" 0 s.Net_churn.double_grants;
  check Alcotest.int "no unexpected fences" 0 s.Net_churn.unexpected_fenced;
  check Alcotest.int "no fencing holes for ghosts" 0 s.Net_churn.stale_ok;
  check Alcotest.int "no cross-shard uniqueness breach" 0 s.Net_churn.gaudit_violations;
  (* The faults must actually have fired for the run to prove anything. *)
  check Alcotest.bool "network faults exercised" true
    (s.Net_churn.net.Transport.dropped > 0
    && s.Net_churn.net.Transport.duplicated > 0
    && s.Net_churn.dedup.Dedup.replays > 0
    && s.Net_churn.resends > 0
    && s.Net_churn.shard_crashes > 0)

let test_net_churn_deterministic () =
  let run () = Net_churn.run (net_churn_cfg ()) ~seed:0xFACEL in
  let a = run () and b = run () in
  check Alcotest.bool "same seed, same summary" true (a = b);
  let c = Net_churn.run (net_churn_cfg ()) ~seed:0xFACE2L in
  check Alcotest.bool "different seed, different trajectory" true
    (c.Net_churn.events <> a.Net_churn.events
    || c.Net_churn.resends <> a.Net_churn.resends
    || c.Net_churn.net.Transport.dropped <> a.Net_churn.net.Transport.dropped)

let test_net_churn_config_validation () =
  let faults = Transport.make_faults ~delay_min:0.01 ~delay_max:0.1 () in
  (* Each sizing rule from docs/fault_model.md §8 is enforced, not
     merely documented. *)
  (match Net_churn.make_config ~hb_every:2.0 ~suspicion:1.5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "suspicion <= hb_every must be rejected");
  (match Net_churn.make_config ~faults ~dedup_window:0.5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dedup window below the retry horizon must be rejected");
  match
    Net_churn.make_config
      ~router:(Router.make_config ~ttl:15.0 ~grace:15.0 ~auto_rebalance:false ())
      ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "grace below ttl + heartbeat + 2*delay must be rejected"

(* With no fault injected the detector must stay quiet, through the
   end of the run: the heartbeats stop with the last client, and so does
   the suspicion sweep. *)
let test_net_churn_fault_free_no_suspicion () =
  List.iter
    (fun sessions ->
      let s =
        Net_churn.run
          (Net_churn.make_config ~sessions_target:sessions ~faults:Transport.perfect ())
          ~seed:0x5EEDL
      in
      check Alcotest.int (Printf.sprintf "suspicions at %d sessions" sessions) 0
        s.Net_churn.detector.Router.suspicions;
      check Alcotest.int (Printf.sprintf "recoveries at %d sessions" sessions) 0
        s.Net_churn.detector.Router.recoveries)
    [ 200; 2_000 ]

(* ------------------------------------------------------------------ *)
(* The campaign: deterministic JSON, and every gate names its failure. *)

let tiny_campaign ?refine backend =
  Net_campaign.run ?refine (Net_campaign.default_spec ~sessions_per_cell:60 ~seeds:[| 3L |] backend)

let test_campaign_json_deterministic () =
  List.iter
    (fun (name, backend) ->
      let a = Net_campaign.to_json (tiny_campaign backend) in
      let b = Net_campaign.to_json (tiny_campaign backend) in
      check Alcotest.string (name ^ ": same seed, byte-identical JSON") a b)
    Net_campaign.backends

let gate_totals = function
  | Net_campaign.Never (t, _) | Net_campaign.Fires (t, _) -> [ t ]
  | Net_campaign.Equal (a, b, _) -> [ a; b ]

let test_campaign_gates_name_failures () =
  List.iter
    (fun (name, backend) ->
      let gates = Net_campaign.gates backend in
      let real = tiny_campaign backend in
      List.iter
        (fun t ->
          check Alcotest.bool (Printf.sprintf "%s: gate total %s exists" name t) true
            (List.mem_assoc t real.Net_campaign.totals))
        (List.concat_map gate_totals gates);
      (* A summary that passes every gate... *)
      let passing =
        List.map
          (fun (t, _) ->
            let fires =
              List.exists (function Net_campaign.Fires (t', _) -> t = t' | _ -> false) gates
            in
            (t, if fires then 1 else 0))
          real.Net_campaign.totals
      in
      let doctored totals = { real with Net_campaign.totals } in
      check Alcotest.(list string) (name ^ ": passing summary") []
        (Net_campaign.failures (doctored passing));
      (* ... and each gate, broken alone, reports exactly its own failure. *)
      List.iter
        (fun gate ->
          let set t v totals = List.map (fun (t', x) -> if t = t' then (t', v) else (t', x)) totals in
          let totals, expected =
            match gate with
            | Net_campaign.Never (t, what) -> (set t 2 passing, Printf.sprintf "2 %s" what)
            | Net_campaign.Fires (t, what) -> (set t 0 passing, "no " ^ what)
            | Net_campaign.Equal (a, b, what) ->
              (set a 3 (set b 1 passing), Printf.sprintf "2 %s" what)
          in
          check Alcotest.(list string) (name ^ ": " ^ expected) [ expected ]
            (Net_campaign.failures (doctored totals)))
        gates)
    Net_campaign.backends;
  let floors backend =
    List.length
      (List.filter (function Net_campaign.Fires _ -> true | _ -> false) (Net_campaign.gates backend))
  in
  check Alcotest.int "service floors: reclaims, sheds" 2 (floors Net_campaign.Service);
  check Alcotest.int "sharded floors: handoffs, mid-transit, adoptions, crashes" 4
    (floors Net_campaign.Sharded);
  check Alcotest.int "net floors: every fault channel" 15 (floors Net_campaign.Net)

(* The checker `chaos --backend` attaches: one router-tap adapter per
   run, its violation count read back afterwards.  Every run must be
   checked, clean, and have fed the spec both steps and stutters. *)
let test_campaign_refine_connected () =
  List.iter
    (fun (name, backend) ->
      let checks = ref [] in
      let refine (cfg : Net_churn.config) =
        let adapter, tap = Renaming_refine.Lease_adapter.of_router cfg.Net_churn.router in
        let c = Renaming_refine.Lease_adapter.check adapter in
        checks := c :: !checks;
        (tap, fun () -> Renaming_refine.Check.violations c)
      in
      let results = (tiny_campaign ~refine backend).Net_campaign.results in
      check Alcotest.int (name ^ ": one checker per run") (List.length results)
        (List.length !checks);
      List.iter2
        (fun r c ->
          let label = name ^ "/" ^ r.Net_campaign.cr_name in
          check Alcotest.(option int) (label ^ ": refine clean") (Some 0) r.Net_campaign.cr_refine;
          check Alcotest.bool (label ^ ": stepped") true (Renaming_refine.Check.steps c > 0);
          check Alcotest.bool (label ^ ": stuttered") true (Renaming_refine.Check.stutters c > 0))
        results (List.rev !checks))
    Net_campaign.backends

(* ------------------------------------------------------------------ *)
(* Admission deadline expiry is a first-class observable.             *)

let test_service_deadline_expired_metric () =
  let obs = Obs.create () in
  let time, clock = manual_clock () in
  let cfg =
    Service.make_config
      ~lease:(Lease.make_config ~capacity:1 ~ttl:50.0 ())
      ~admission:
        (Admission.make_config ~queue_limit:4 ~request_timeout:1.0 ~high_water:1.5 ())
      ()
  in
  let svc = Service.create ~obs ~clock ~rng:(Xoshiro.create 3L) cfg in
  (match Service.acquire svc ~session:1 with
  | Service.Granted _ -> ()
  | _ -> Alcotest.fail "grant 1");
  (match Service.acquire svc ~session:2 with
  | Service.Queued _ -> ()
  | _ -> Alcotest.fail "queue 2");
  check Alcotest.int "nothing expired yet" 0 (Service.deadline_expired svc);
  (* The queued request hits its deadline while the slot is still held:
     the pump reports Timed_out and the counter must agree. *)
  time := 2.0;
  (match Service.pump svc with
  | [ Service.Timed_out { session = 2; _ } ] -> ()
  | _ -> Alcotest.fail "expected the queued request to time out");
  check Alcotest.int "accessor counts the expiry" 1 (Service.deadline_expired svc);
  check Alcotest.(option int) "admission/deadline_expired counter mirrors it" (Some 1)
    (Metrics.find_counter (Obs.metrics obs) "admission/deadline_expired")

let tests =
  [
    ( "service",
      [
        Alcotest.test_case "heap deterministic order" `Quick test_heap_deterministic_order;
        Alcotest.test_case "lease capacity + release" `Quick test_lease_capacity_and_release;
        Alcotest.test_case "reclaim skips renewed" `Quick test_lease_reclaim_skips_renewed;
        Alcotest.test_case "admission shed + expire" `Quick test_admission_shed_and_expire;
        Alcotest.test_case "minter uniqueness" `Quick test_minter_unique_across_blocks;
        Alcotest.test_case "audit: double grant" `Quick test_audit_catches_double_grant;
        Alcotest.test_case "audit: stale accept" `Quick test_audit_catches_stale_accept;
        Alcotest.test_case "audit: early reclaim" `Quick test_audit_catches_early_reclaim;
        Alcotest.test_case "audit: time regression" `Quick test_audit_catches_time_regression;
        Alcotest.test_case "service: queue + reclaim" `Quick test_service_queue_then_reclaim_grant;
        Alcotest.test_case "service: queue drains" `Quick test_service_queue_drain_done;
        Alcotest.test_case "service: high-water shed" `Quick test_service_high_water_shed;
        Alcotest.test_case "service: stale fence" `Quick test_service_stale_fence_rejected;
        Alcotest.test_case "service: idle pump fast path" `Quick test_service_pump_fast_path;
        Alcotest.test_case "service: saturated pump allocates nothing" `Quick
          test_service_saturated_pump_allocates_nothing;
        Alcotest.test_case "service: saturated completions golden" `Quick
          test_service_saturated_golden;
        Alcotest.test_case "churn: safety + reclaim" `Quick test_churn_safety_and_reclaim;
        Alcotest.test_case "churn: deterministic" `Quick test_churn_deterministic;
        Alcotest.test_case "heap: compaction order" `Quick test_heap_compact_preserves_order;
        Alcotest.test_case "heap: push allocates nothing" `Quick test_heap_push_allocates_nothing;
        Alcotest.test_case "lease: heap compaction" `Quick test_lease_heap_compaction;
        Alcotest.test_case "audit: metrics counters" `Quick test_audit_metrics_counters;
        Alcotest.test_case "router: clean handoff" `Quick test_router_clean_handoff_keeps_leases;
        Alcotest.test_case "router: src crash -> adopt" `Quick test_router_src_crash_orphans_then_adopts;
        Alcotest.test_case "router: dst crash -> abort" `Quick test_router_dst_crash_aborts_handoff;
        Alcotest.test_case "router: stall heals" `Quick test_router_stall_heals;
        Alcotest.test_case "router: idle pump allocates nothing" `Quick
          test_router_idle_pump_allocates_nothing;
        Alcotest.test_case "shard churn: safety" `Quick test_shard_churn_safety;
        Alcotest.test_case "shard churn: deterministic" `Quick test_shard_churn_deterministic;
        Alcotest.test_case "transport: deterministic + bounded" `Quick
          test_transport_deterministic_and_bounded;
        Alcotest.test_case "transport: directional partition" `Quick
          test_transport_partition_directional;
        Alcotest.test_case "transport: deliver golden batches" `Quick
          test_transport_deliver_golden;
        Alcotest.test_case "transport: deliver_each batch bound" `Quick
          test_transport_deliver_each_batch;
        Alcotest.test_case "dedup: verdicts" `Quick test_dedup_verdicts;
        Alcotest.test_case "dedup: eviction window" `Quick test_dedup_eviction_window;
        Alcotest.test_case "detector: suspicion + recovery" `Quick
          test_router_detector_suspicion_and_recovery;
        Alcotest.test_case "detector: incarnation orphans" `Quick
          test_router_detector_incarnation_orphans;
        Alcotest.test_case "net churn: safety" `Quick test_net_churn_safety;
        Alcotest.test_case "net churn: deterministic" `Quick test_net_churn_deterministic;
        Alcotest.test_case "net churn: config validation" `Quick
          test_net_churn_config_validation;
        Alcotest.test_case "net churn: fault-free run has no suspicions" `Quick
          test_net_churn_fault_free_no_suspicion;
        Alcotest.test_case "campaign: same seed, byte-identical JSON" `Quick
          test_campaign_json_deterministic;
        Alcotest.test_case "campaign: every gate reports its named failure" `Quick
          test_campaign_gates_name_failures;
        Alcotest.test_case "campaign: the CLI's refinement checker is connected" `Quick
          test_campaign_refine_connected;
        Alcotest.test_case "service: deadline-expiry metric" `Quick
          test_service_deadline_expired_metric;
        QCheck_alcotest.to_alcotest qcheck_compact_preserves_pop_order;
        QCheck_alcotest.to_alcotest qcheck_heap_reference_model;
        QCheck_alcotest.to_alcotest qcheck_expiry_monotone;
        QCheck_alcotest.to_alcotest qcheck_reclaim_never_revokes_renewed;
        QCheck_alcotest.to_alcotest qcheck_stale_fence_never_writes;
      ] );
  ]

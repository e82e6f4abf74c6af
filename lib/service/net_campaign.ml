module Json = Renaming_obs.Json
module Export = Renaming_obs.Export

type backend = Service | Sharded | Net

let backends = [ ("service", Service); ("sharded", Sharded); ("net", Net) ]
let backend_name b = fst (List.find (fun (_, b') -> b' = b) backends)

type cell = { cell_name : string; cell_cfg : Net_churn.config }

type spec = { backend : backend; cells : cell list; seeds : int64 array }

let default_sessions = function Service -> 150_000 | Sharded -> 60_000 | Net -> 65_000

let service_router ?(slice_capacity = 32) ?(queue_limit = 32) ?(request_timeout = 5.0)
    ?(high_water = 0.85) () =
  Router.make_config ~shards:2 ~slices:2 ~slice_capacity ~ttl:15.0 ~grace:24.0 ~queue_limit
    ~request_timeout ~high_water ~auto_rebalance:false ()

(* The lease service alone on a perfect network with no node faults; the
   single service's queue limit of 64 is split over the two slices. *)
let service_cells ~sessions_target =
  let router = service_router in
  let base =
    Net_churn.make_config ~sessions_target ~faults:Transport.perfect ~stale_wakeup:0.25
      ~max_attempts:6
  in
  [
    (* Utilization shedding: the high-water mark refuses new work while
       reclaim churn eats the reserved headroom. *)
    { cell_name = "steady-shed"; cell_cfg = base ~clients:128 ~crash_rate:0.25 ~router:(router ()) () };
    (* Queue-only admission: shedding disabled (high_water > 1), so
       degradation happens through the bounded queue — waits, timeouts,
       queue-full refusals. *)
    {
      cell_name = "queue-degrade";
      cell_cfg =
        base ~clients:192 ~crash_rate:0.25
          ~router:(router ~high_water:1.5 ~queue_limit:16 ~request_timeout:2.0 ())
          ();
    };
    (* Correlated burst: a third of the population crashes inside a
       ten-tick window — reclamation has to recover a block of names at
       once. *)
    {
      cell_name = "burst-reclaim";
      cell_cfg =
        base ~clients:128 ~crash_rate:0.25 ~router:(router ())
          ~burst:{ Net_churn.b_at = 300; b_width = 10; b_failures = 42 }
          ();
    };
    (* Zipf-hot churn: skew 1.4 and short thinks concentrate arrivals on
       a few hot clients at a 35% crash rate. *)
    {
      cell_name = "hot-zipf";
      cell_cfg =
        base ~clients:128 ~crash_rate:0.35 ~zipf_s:1.4 ~mean_think:1.5 ~router:(router ()) ();
    };
  ]

(* The sharded router on a perfect network: every fault is a node fault
   the driver injects, discovered by the router only through heartbeat
   silence or an incarnation bump. *)
let sharded_cells ~sessions_target =
  let base = Net_churn.make_config ~sessions_target ~faults:Transport.perfect in
  [
    (* Zipf skew concentrates the hot slices on shard 0; the
       auto-rebalancer must move slices off it, and every clean handoff
       must keep live leases alive (unexpected_fenced = 0). *)
    {
      cell_name = "hot-rebalance";
      cell_cfg =
        base ~zipf_s:1.4 ~mean_think:1.5 ~crash_rate:0.1
          ~router:
            (Router.make_config ~ttl:15.0 ~grace:24.0 ~auto_rebalance:true ~hot_util:0.55
               ~cold_util:0.45 ())
          ();
    };
    (* Silent shard crashes with restarts slow enough that survivors
       absorb the orphaned slices after grace; the doomed leases come
       back only as expected fences. *)
    {
      cell_name = "shard-crash";
      cell_cfg =
        base ~crash_rate:0.15 ~shard_crash:{ Net_churn.c_every = 60.0; c_restart = 40.0 } ();
    };
    (* Crash-during-handoff: forced slice transfers where source or
       destination dies in the in-transit window.  The epoch fence must
       turn every such crash into an orphan or an abort — never a
       double-served slice. *)
    {
      cell_name = "handoff-crash";
      cell_cfg =
        base ~crash_rate:0.1
          ~handoff:
            { Net_churn.h_every = 12.0; h_crash_src = 0.3; h_crash_dst = 0.2; h_restart = 35.0 }
          ();
    };
    (* Stall routing: shards pause in rotation, some stalls healing
       before adoption (the slices are re-owned intact), some outliving
       suspicion plus grace (the slices are adopted and the woken shard
       must drop its stale bodies). *)
    {
      cell_name = "stall-routing";
      cell_cfg =
        base ~crash_rate:0.1 ~stall:{ Net_churn.st_every = 40.0; st_duration = 24.0 } ();
    };
  ]

let net_cells ~sessions_target =
  let base = Net_churn.make_config ~sessions_target in
  let faults = Transport.make_faults in
  let router = Router.make_config ~ttl:15.0 ~grace:24.0 in
  [
    (* Message loss, duplication and reordering while the auto-rebalancer
       moves Zipf-hot slices between shards: clean handoffs meet in-flight
       duplicates, so the per-slice dedup table must travel with the body
       and the epoch carried by stale forwards must bounce them. *)
    {
      cell_name = "lossy";
      cell_cfg =
        base ~zipf_s:1.4 ~mean_think:1.5
          ~faults:(faults ~drop:0.05 ~duplicate:0.02 ~reorder:0.10 ~reorder_extra:0.3 ())
          ~router:(router ~auto_rebalance:true ~hot_util:0.55 ~cold_util:0.45 ())
          ();
    };
    (* Duplication-dominated: a quarter of all messages delivered twice
       and another quarter reordered, hammering replay and
       stale-duplicate discard on every path. *)
    {
      cell_name = "dup-storm";
      cell_cfg =
        base ~faults:(faults ~drop:0.01 ~duplicate:0.25 ~reorder:0.25 ~reorder_extra:0.45 ()) ();
    };
    (* Directional partitions long enough for the router to suspect
       (heartbeats cut), short enough to heal before grace: false
       suspicion, recovery, and same-epoch re-own with every lease
       intact.  Half the partitions also cut router→shard, turning false
       suspicion into real unavailability. *)
    {
      cell_name = "partition";
      cell_cfg =
        base
          ~faults:(faults ~drop:0.02 ~duplicate:0.02 ~reorder:0.05 ~reorder_extra:0.2 ())
          ~partition:{ Net_churn.p_every = 40.0; p_duration = 12.0; p_both = 0.5 }
          ();
    };
    (* Silent shard crashes the router discovers only through heartbeat
       loss; restart delays straddle the suspicion window, so some
       restarts announce themselves by incarnation bump (before the sweep
       fires) and some by recovery-from-suspicion over an amnesiac body.
       Orphans are adopted after grace. *)
    {
      cell_name = "crash-detect";
      cell_cfg =
        base
          ~faults:(faults ~drop:0.03 ~duplicate:0.03 ~reorder:0.05 ~reorder_extra:0.2 ())
          ~shard_crash:{ Net_churn.c_every = 45.0; c_restart = 2.0 }
          ();
    };
  ]

let default_spec ?sessions_per_cell ?(seeds = [| 0x5EED_2015L; 0xC0FFEEL |]) backend =
  let sessions_target = Option.value sessions_per_cell ~default:(default_sessions backend) in
  let cells =
    match backend with
    | Service -> service_cells ~sessions_target
    | Sharded -> sharded_cells ~sessions_target
    | Net -> net_cells ~sessions_target
  in
  { backend; cells; seeds }

type cell_result = {
  cr_name : string;
  cr_seed : int64;
  cr_summary : Net_churn.summary;
  cr_refine : int option;
}

type summary = { backend : backend; results : cell_result list; totals : (string * int) list }

let total s name = List.assoc name s.totals

(* Campaign totals in schema order: the net campaign's original totals
   first, so its JSON only ever gains keys. *)
let total_rows : (string * (cell_result -> int)) list =
  let s f r = f r.cr_summary in
  Net_churn.
    [
      ("sessions", s (fun s -> s.sessions));
      ("sent", s (fun s -> s.net.Transport.sent));
      ("dropped", s (fun s -> s.net.Transport.dropped));
      ("duplicated", s (fun s -> s.net.Transport.duplicated));
      ("reordered", s (fun s -> s.net.Transport.reordered));
      ("blocked", s (fun s -> s.net.Transport.blocked));
      ("resends", s (fun s -> s.resends));
      ("timeouts", s (fun s -> s.timeouts));
      ("replays", s (fun s -> s.dedup.Dedup.replays));
      ("stale_dups", s (fun s -> s.dedup.Dedup.stale));
      ("evictions", s (fun s -> s.dedup.Dedup.evictions));
      ("suspicions", s (fun s -> s.detector.Router.suspicions));
      ("recoveries", s (fun s -> s.detector.Router.recoveries));
      ("reowns", s (fun s -> s.detector.Router.reowns));
      ("incarnation_orphans", s (fun s -> s.detector.Router.incarnation_orphans));
      ("adoptions", s (fun s -> s.router.Router.adoptions));
      ("partitions", s (fun s -> s.partitions));
      ("shard_crashes", s (fun s -> s.shard_crashes));
      ("redirects", s (fun s -> s.redirects));
      ("abandoned", s (fun s -> s.abandoned));
      ("lost_tickets", s (fun s -> s.lost_tickets));
      ("late_grants_released", s (fun s -> s.late_grants_released));
      ("expected_fenced", s (fun s -> s.expected_fenced));
      ("unexpected_fenced", s (fun s -> s.unexpected_fenced));
      ("double_grants", s (fun s -> s.double_grants));
      ("stale_ops", s (fun s -> s.stale_ops));
      ("stale_ok", s (fun s -> s.stale_ok));
      ("audit_near_misses", s (fun s -> s.audit_near_misses));
      ( "violations",
        s (fun s -> s.gaudit_violations + match s.violation with Some _ -> 1 | None -> 0) );
      ("livelocks", s (fun s -> if s.livelocked then 1 else 0));
      ("refine_violations", fun r -> Option.value r.cr_refine ~default:0);
      ("stale_rejected", s (fun s -> s.stale_rejected));
      ("stale_fenced", s (fun s -> s.stale_fenced));
      ("client_crashes", s (fun s -> s.client_crashes));
      ("sheds", s (fun s -> s.sheds));
      ("grants", s (fun s -> s.service.Service.grants));
      ("reclaims", s (fun s -> s.service.Service.reclaims));
      ("expired_requests", s (fun s -> s.service.Service.expired_requests));
      ("handoffs_started", s (fun s -> s.router.Router.handoffs_started));
      ( "mid_transit_crashes",
        s (fun s -> s.router.Router.handoffs_aborted + s.router.Router.handoffs_orphaned) );
      ("shard_stalls", s (fun s -> s.shard_stalls));
      ("shard_down_busy", s (fun s -> s.shard_down_busy));
      ("in_handoff_busy", s (fun s -> s.in_handoff_busy));
    ]

let summarize backend results =
  {
    backend;
    results;
    totals =
      List.map
        (fun (name, f) -> (name, List.fold_left (fun acc r -> acc + f r) 0 results))
        total_rows;
  }

let run ?progress ?obs ?refine spec =
  let total = List.length spec.cells * Array.length spec.seeds in
  let done_ = ref 0 in
  let results =
    List.concat_map
      (fun cell ->
        Array.to_list
          (Array.map
             (fun seed ->
               let checker = Option.map (fun f -> f cell.cell_cfg) refine in
               let summary = Net_churn.run ?obs ?tap:(Option.map fst checker) cell.cell_cfg ~seed in
               incr done_;
               (match progress with Some f -> f ~done_:!done_ ~total | None -> ());
               {
                 cr_name = cell.cell_name;
                 cr_seed = seed;
                 cr_summary = summary;
                 cr_refine = Option.map (fun (_, violations) -> violations ()) checker;
               })
             spec.seeds))
      spec.cells
  in
  let summary = summarize spec.backend results in
  Option.iter
    (fun o ->
      let record name v =
        Renaming_obs.Metrics.add
          (Renaming_obs.Obs.counter o
             (Printf.sprintf "chaos_%s/%s" (backend_name spec.backend) name))
          v
      in
      record "runs" (List.length results);
      List.iter (fun (name, v) -> record name v) summary.totals)
    obs;
  summary

(* {2 Gates} *)

type gate = Never of string * string | Fires of string * string | Equal of string * string * string

let safety_gates =
  [
    Never ("violations", "audit violation(s)");
    Never ("refine_violations", "refinement violation(s)");
    Never ("double_grants", "at-most-once violation(s) (rid executed twice)");
    Never ("unexpected_fenced", "live operation(s) wrongly fenced");
    Never ("stale_ok", "stale ghost operation(s) not fenced");
    Never ("livelocks", "livelocked run(s)");
  ]

let gates backend =
  let machinery (total, what) = Fires (total, what ^ " (fault machinery not exercised)") in
  safety_gates
  @
  match backend with
  | Service ->
    [
      Equal ("stale_ops", "stale_fenced", "stale operation(s) not fenced");
      Fires ("reclaims", "reclaimed leases (churn not exercised)");
      Fires ("sheds", "shed requests (overload not exercised)");
    ]
  | Sharded ->
    [
      Fires ("handoffs_started", "slice handoffs (rebalancing not exercised)");
      Fires ("mid_transit_crashes", "handoff crashed mid-transit");
      Fires ("adoptions", "orphaned slice adopted (degradation not exercised)");
      Fires ("shard_crashes", "shard crashes injected");
    ]
  | Net ->
    List.map machinery
      [
        ("dropped", "messages dropped");
        ("duplicated", "messages duplicated");
        ("reordered", "messages reordered");
        ("blocked", "messages blocked by partitions");
        ("resends", "client retransmits");
        ("replays", "dedup replays");
        ("evictions", "dedup evictions");
        ("suspicions", "detector suspicions");
        ("recoveries", "detector recoveries");
        ("reowns", "slice re-owns");
        ("incarnation_orphans", "incarnation orphans");
        ("adoptions", "orphan adoptions");
        ("partitions", "partitions");
        ("shard_crashes", "shard crashes");
        ("redirects", "redirects");
      ]

let failures s =
  List.filter_map
    (function
      | Never (t, what) ->
        let n = total s t in
        if n <> 0 then Some (Printf.sprintf "%d %s" n what) else None
      | Fires (t, what) -> if total s t = 0 then Some ("no " ^ what) else None
      | Equal (a, b, what) ->
        let d = total s a - total s b in
        if d <> 0 then Some (Printf.sprintf "%d %s" d what) else None)
    (gates s.backend)

(* {2 Output} *)

let schema = function
  | Service -> "renaming.chaos-service/2"
  | Sharded -> "renaming.chaos-sharded/2"
  | Net -> "renaming.chaos-net/1"

let result_json r =
  let s = r.cr_summary in
  let net = s.Net_churn.net in
  let dd = s.Net_churn.dedup in
  let fd = s.Net_churn.detector in
  let rt = s.Net_churn.router in
  let sv = s.Net_churn.service in
  Json.Obj
    [
      ("cell", Json.String r.cr_name);
      ("seed", Json.String (Printf.sprintf "0x%Lx" r.cr_seed));
      ("sessions", Json.Int s.Net_churn.sessions);
      ("events", Json.Int s.Net_churn.events);
      ("sim_time", Json.Float s.Net_churn.sim_time);
      ("sent", Json.Int net.Transport.sent);
      ("delivered", Json.Int net.Transport.delivered);
      ("dropped", Json.Int net.Transport.dropped);
      ("duplicated", Json.Int net.Transport.duplicated);
      ("reordered", Json.Int net.Transport.reordered);
      ("blocked", Json.Int net.Transport.blocked);
      ("dedup_fresh", Json.Int dd.Dedup.fresh);
      ("dedup_replays", Json.Int dd.Dedup.replays);
      ("dedup_stale", Json.Int dd.Dedup.stale);
      ("dedup_evictions", Json.Int dd.Dedup.evictions);
      ("suspicions", Json.Int fd.Router.suspicions);
      ("recoveries", Json.Int fd.Router.recoveries);
      ("reowns", Json.Int fd.Router.reowns);
      ("incarnation_orphans", Json.Int fd.Router.incarnation_orphans);
      ("adoptions", Json.Int rt.Router.adoptions);
      ("partitions", Json.Int s.Net_churn.partitions);
      ("shard_crashes", Json.Int s.Net_churn.shard_crashes);
      ("shard_restarts", Json.Int s.Net_churn.shard_restarts);
      ("client_crashes", Json.Int s.Net_churn.client_crashes);
      ("resends", Json.Int s.Net_churn.resends);
      ("timeouts", Json.Int s.Net_churn.timeouts);
      ("redirects", Json.Int s.Net_churn.redirects);
      ("shard_down_busy", Json.Int s.Net_churn.shard_down_busy);
      ("in_handoff_busy", Json.Int s.Net_churn.in_handoff_busy);
      ("sheds", Json.Int s.Net_churn.sheds);
      ("abandoned", Json.Int s.Net_churn.abandoned);
      ("lost_tickets", Json.Int s.Net_churn.lost_tickets);
      ("late_grants_released", Json.Int s.Net_churn.late_grants_released);
      ("releases_dropped", Json.Int s.Net_churn.releases_dropped);
      ("expected_fenced", Json.Int s.Net_churn.expected_fenced);
      ("unexpected_fenced", Json.Int s.Net_churn.unexpected_fenced);
      ("double_grants", Json.Int s.Net_churn.double_grants);
      ("stale_ops", Json.Int s.Net_churn.stale_ops);
      ("stale_rejected", Json.Int s.Net_churn.stale_rejected);
      ("stale_fenced", Json.Int s.Net_churn.stale_fenced);
      ("stale_ok", Json.Int s.Net_churn.stale_ok);
      ("audit_near_misses", Json.Int s.Net_churn.audit_near_misses);
      ("gaudit_violations", Json.Int s.Net_churn.gaudit_violations);
      ("gaudit_live", Json.Int s.Net_churn.gaudit_live);
      ("peak_held", Json.Int s.Net_churn.peak_held);
      ("final_held", Json.Int s.Net_churn.final_held);
      ("livelocked", Json.Bool s.Net_churn.livelocked);
      ( "violation",
        match s.Net_churn.violation with
        | None -> Json.Null
        | Some (kind, message) ->
          Json.Obj [ ("kind", Json.String kind); ("message", Json.String message) ] );
      ("refine_violations", match r.cr_refine with Some v -> Json.Int v | None -> Json.Null);
      ("shard_stalls", Json.Int s.Net_churn.shard_stalls);
      ("handoffs_started", Json.Int rt.Router.handoffs_started);
      ("handoffs_completed", Json.Int rt.Router.handoffs_completed);
      ("handoffs_aborted", Json.Int rt.Router.handoffs_aborted);
      ("handoffs_orphaned", Json.Int rt.Router.handoffs_orphaned);
      ("grants", Json.Int sv.Service.grants);
      ("queued", Json.Int sv.Service.queued);
      ("renews", Json.Int sv.Service.renews);
      ("releases", Json.Int sv.Service.releases);
      ("reclaims", Json.Int sv.Service.reclaims);
      ("sheds_high_water", Json.Int sv.Service.sheds_high_water);
      ("sheds_queue_full", Json.Int sv.Service.sheds_queue_full);
      ("expired_requests", Json.Int sv.Service.expired_requests);
      ("fenced", Json.Int sv.Service.fenced);
      ("hist_probes", Export.hist_json s.Net_churn.h_probes);
      ("hist_reclaim_lateness", Export.hist_json s.Net_churn.h_reclaim);
      ("hist_queue_wait", Export.hist_json s.Net_churn.h_wait);
      ("hist_lease_lifetime", Export.hist_json s.Net_churn.h_lifetime);
    ]

let to_json s =
  Json.to_string
    (Json.Obj
       ((("schema", Json.String (schema s.backend))
        :: List.map (fun (name, v) -> ("total_" ^ name, Json.Int v)) s.totals)
       @ [ ("runs", Json.List (List.map result_json s.results)) ]))

let pp fmt s =
  let t = total s in
  Format.fprintf fmt
    "%s chaos: %d runs, %d sessions, %d grants, %d reclaims, %d sheds, %d handoffs (%d \
     crashed mid-transit), %d adoptions, net %d sent / %d dropped / %d dup / %d reordered / \
     %d blocked, dedup %d replays / %d stale / %d evictions, detector %d suspicions / %d \
     recoveries / %d reowns / %d incarnation, fenced %d expected / %d unexpected, stale %d/%d \
     fenced, %d double grants, %d violations, %d refine violations, %d livelocks@."
    (backend_name s.backend) (List.length s.results) (t "sessions") (t "grants") (t "reclaims")
    (t "sheds") (t "handoffs_started") (t "mid_transit_crashes") (t "adoptions") (t "sent")
    (t "dropped") (t "duplicated") (t "reordered") (t "blocked") (t "replays") (t "stale_dups")
    (t "evictions") (t "suspicions") (t "recoveries") (t "reowns") (t "incarnation_orphans")
    (t "expected_fenced") (t "unexpected_fenced") (t "stale_fenced") (t "stale_ops")
    (t "double_grants") (t "violations") (t "refine_violations") (t "livelocks");
  List.iter
    (fun r ->
      let s = r.cr_summary in
      let rt = s.Net_churn.router in
      let net = s.Net_churn.net in
      let fd = s.Net_churn.detector in
      Format.fprintf fmt
        "  %-14s seed=0x%Lx sessions=%d grants=%d reclaims=%d sheds=%d stale=%d/%d \
         handoffs=%d/%d adopt=%d sent=%d drop=%d dup=%d block=%d replays=%d evict=%d \
         suspect=%d/%d/%d fenced=%d/%d dbl=%d peak=%d%s%s%s@."
        r.cr_name r.cr_seed s.Net_churn.sessions s.Net_churn.service.Service.grants
        s.Net_churn.service.Service.reclaims s.Net_churn.sheds s.Net_churn.stale_fenced
        s.Net_churn.stale_ops rt.Router.handoffs_started
        (rt.Router.handoffs_aborted + rt.Router.handoffs_orphaned)
        rt.Router.adoptions net.Transport.sent net.Transport.dropped net.Transport.duplicated
        net.Transport.blocked s.Net_churn.dedup.Dedup.replays s.Net_churn.dedup.Dedup.evictions
        fd.Router.suspicions fd.Router.recoveries fd.Router.reowns s.Net_churn.expected_fenced
        s.Net_churn.unexpected_fenced s.Net_churn.double_grants s.Net_churn.peak_held
        (match r.cr_refine with Some v when v > 0 -> Printf.sprintf " REFINE:%d" v | _ -> "")
        (if s.Net_churn.livelocked then " LIVELOCK" else "")
        (match s.Net_churn.violation with
        | Some (kind, _) -> " VIOLATION:" ^ kind
        | None -> ""))
    s.results

let headline s =
  let gated =
    List.concat_map
      (function Never (t, _) | Fires (t, _) -> [ t ] | Equal (a, b, _) -> [ a; b ])
      (gates s.backend)
  in
  String.concat ", "
    (Printf.sprintf "%d sessions" (total s "sessions")
    :: List.map (fun t -> Printf.sprintf "%s %d" t (total s t)) gated)

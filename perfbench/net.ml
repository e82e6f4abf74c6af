(* net-faulty: the sharded service over the unreliable transport
   ([Net_churn.run], configured only through [Net_churn.make_config]),
   with drop/duplicate/reorder faults, directional partitions and silent
   shard crashes, observed through [Lease_adapter.router_tap].
   Transport, dedup, the router and its failure detector do most of the
   work; the lease layer runs in small per-slice tables below capacity,
   where the fast path and renewals dominate — the opposite regime to
   lease-saturated. *)

module Net_churn = Renaming_service.Net_churn
module Transport = Renaming_service.Transport
module Dedup = Renaming_service.Dedup
module Router = Renaming_service.Router
module Lease_adapter = Renaming_refine.Lease_adapter
module Check = Renaming_refine.Check
module Longlived = Renaming_longlived.Longlived
module Xoshiro = Renaming_rng.Xoshiro
module Sample = Renaming_rng.Sample

type sizes = { sessions : int; det_episodes : int }

let full = { sessions = 16_000; det_episodes = 2 }
let tiny = { sessions = 300; det_episodes = 2 }

let clients = 96
let faults = Transport.make_faults ~drop:0.03 ~duplicate:0.03 ~reorder:0.05 ~reorder_extra:0.2 ()
let partition = { Net_churn.p_every = 40.0; p_duration = 8.0; p_both = 0.5 }
let shard_crash = { Net_churn.c_every = 45.0; c_restart = 2.0 }

(* Shed or unavailable requests retry rather than give up, so no
   session is abandoned. *)
let max_attempts = 1_000

type rung = Perfect | Msg_faults | Node_faults

let config ?(rung = Node_faults) sz =
  match rung with
  | Perfect ->
    Net_churn.make_config ~clients ~sessions_target:sz.sessions ~max_attempts
      ~faults:Transport.perfect ()
  | Msg_faults -> Net_churn.make_config ~clients ~sessions_target:sz.sessions ~max_attempts ~faults ()
  | Node_faults ->
    Net_churn.make_config ~clients ~sessions_target:sz.sessions ~max_attempts ~faults ~partition
      ~shard_crash ()

let namespace_and_width (cfg : Net_churn.config) =
  let r = cfg.Net_churn.router in
  let w = Longlived.namespace_for ~sessions:r.Router.slice_capacity ~epsilon:r.Router.epsilon in
  (r.Router.slices * w, w)

(* The correctness gate of one run; [refine_violations] is 0 for runs
   without the checker. *)
let gates (s : Net_churn.summary) ~refine_violations =
  let gate cond kind acc = if cond then kind :: acc else acc in
  []
  |> gate (s.Net_churn.violation <> None) "audit:violation"
  |> gate (s.Net_churn.gaudit_violations > 0) "gaudit:violation"
  |> gate (refine_violations > 0) "refine:violation"
  |> gate (s.Net_churn.double_grants > 0) "double_grants"
  |> gate (s.Net_churn.stale_ok > 0) "stale_ok"
  |> gate (s.Net_churn.unexpected_fenced > 0) "unexpected_fenced"
  |> gate s.Net_churn.livelocked "livelock"

(* One episode of the workload, refinement checker attached.  With
   [?tracing], the run is a span and so is every tap callback. *)
let run_episode ?tracing sz ~seed =
  let cfg = config sz in
  let namespace, slice_width = namespace_and_width cfg in
  let adapter = Lease_adapter.create ~namespace () in
  let tap =
    match tracing with
    | None -> Lease_adapter.router_tap adapter ~slice_width
    | Some (tr, _, sp_tap, parent) ->
      fun ev ->
        let s0 = Span.now_ns () in
        let slot = Span.enter tr ~id:sp_tap ~start:s0 ~parent:!parent ~rid:(-1) in
        Lease_adapter.router_tap adapter ~slice_width ev;
        Span.leave tr ~id:sp_tap ~slot ~start:s0
  in
  let s =
    match tracing with
    | None -> Net_churn.run ~tap cfg ~seed
    | Some (tr, sp_run, _, parent) ->
      let s0 = Span.now_ns () in
      let slot = Span.enter tr ~id:sp_run ~start:s0 ~parent:(-1) ~rid:(-1) in
      parent := slot;
      let s = Net_churn.run ~tap cfg ~seed in
      Span.leave tr ~id:sp_run ~slot ~start:s0;
      s
  in
  (s, adapter)

let counts ?(refine_violations = 0) (s : Net_churn.summary) =
  let sessions = s.Net_churn.sessions in
  (sessions - s.Net_churn.abandoned, sessions, s.Net_churn.abandoned, gates s ~refine_violations)

(* The workload's gate also requires every injected fault to fire. *)
let episode_counts (s, adapter) =
  let ops, attempted, failed, violations =
    counts ~refine_violations:(Check.violations (Lease_adapter.check adapter)) s
  in
  let gate cond kind acc = if cond then kind :: acc else acc in
  let net = s.Net_churn.net in
  ( ops,
    attempted,
    failed,
    violations
    |> gate (net.Transport.dropped = 0) "coverage:drop"
    |> gate (net.Transport.duplicated = 0) "coverage:duplicate"
    |> gate (net.Transport.reordered = 0) "coverage:reorder"
    |> gate (s.Net_churn.partitions = 0) "coverage:partition"
    |> gate (s.Net_churn.shard_crashes = 0) "coverage:shard_crash" )

(* Set-up: validate the configuration and run a short warm-up episode. *)
let setup sz ~seed =
  ignore (run_episode { sz with sessions = max 1 (sz.sessions / 8) } ~seed)

(* ---- standalone layer loops, sized from the workload ---- *)

(* [msgs] sends through a transport with the workload's faults, at the
   workload's send rate, pulling due deliveries after every send. *)
let transport_loop ~msgs ~sim_time ~seed =
  let t = Transport.create ~faults ~rng:(Xoshiro.create seed) () in
  let dt = sim_time /. float_of_int (max 1 msgs) in
  let w0 = Meter.alloc_words () in
  let t0 = Span.now_ns () in
  for k = 0 to msgs - 1 do
    let now = float_of_int k *. dt in
    let src, dst =
      match k mod 3 with
      | 0 -> (Transport.Client (k mod clients), Transport.Router)
      | 1 -> (Transport.Router, Transport.Shard (k land 3))
      | _ -> (Transport.Shard (k land 3), Transport.Client (k mod clients))
    in
    Transport.send t ~now ~src ~dst k;
    ignore (Transport.deliver t ~now)
  done;
  ignore (Transport.deliver t ~now:infinity);
  let ns = Span.now_ns () - t0 in
  let words = Meter.alloc_words () -. w0 in
  (float_of_int ns /. float_of_int msgs, words /. float_of_int msgs)

(* [ops] admissions over [clients] sequence spaces, with the workload's
   shares of retransmits (replays) and reordered stale duplicates. *)
let dedup_loop ~ops ~replay_share ~stale_share ~sim_time ~seed =
  let d : int Dedup.t = Dedup.create ~window:60.0 () in
  let rng = Xoshiro.create seed in
  let seqs = Array.make clients 0 in
  let dt = sim_time /. float_of_int (max 1 ops) in
  let t0 = Span.now_ns () in
  for k = 0 to ops - 1 do
    let now = float_of_int k *. dt in
    let client = Sample.uniform_int rng clients in
    let r = Sample.float_unit rng in
    let seq = seqs.(client) in
    if r < replay_share && seq > 0 then ignore (Dedup.admit d ~client ~seq ~now)
    else if r < replay_share +. stale_share && seq > 1 then
      ignore (Dedup.admit d ~client ~seq:(seq - 1) ~now)
    else begin
      seqs.(client) <- seq + 1;
      match Dedup.admit d ~client ~seq:(seq + 1) ~now with
      | Dedup.Fresh -> Dedup.record d ~client ~seq:(seq + 1) ~now k
      | Dedup.Replay _ | Dedup.Stale -> ()
    end;
    if k land 255 = 0 then ignore (Dedup.sweep d ~now)
  done;
  float_of_int (Span.now_ns () - t0) /. float_of_int (max 1 ops)

(* ---- ladder: the net path with layers stacked one at a time ---- *)

let rung_names = [ (Perfect, "perfect"); (Msg_faults, "msg_faults"); (Node_faults, "node_faults") ]

let ladder_episodes = 2

let ladder sz ~seed =
  let measure name run =
    let es =
      List.init ladder_episodes (fun index ->
          Meter.measure (fun () -> run ~seed:(Meter.episode_seed ~seed ~episode:index ~lane:1)))
    in
    let ops = List.fold_left (fun a e -> a + e.Meter.ops) 0 es in
    let wall = List.fold_left (fun a e -> a +. e.Meter.wall_s) 0. es in
    let words = List.fold_left (fun a e -> a +. e.Meter.words) 0. es in
    ( List.concat_map (fun e -> e.Meter.violations) es,
      [
        Meter.m ("ladder." ^ name ^ ".sessions_per_s") "1/s" (float_of_int ops /. wall);
        Meter.m ("ladder." ^ name ^ ".words_per_session") "words" (words /. float_of_int ops);
      ] )
  in
  let rungs =
    List.map
      (fun (rung, name) ->
        measure name (fun ~seed -> counts (Net_churn.run (config ~rung sz) ~seed)))
      rung_names
    @ [ measure "refine" (fun ~seed -> episode_counts (run_episode sz ~seed)) ]
  in
  (List.concat_map fst rungs, List.concat_map snd rungs)

(* ---- traced ledger ---- *)

let traced sz ~seed ~episodes =
  let tr = Span.create [ "net.run"; "refine.tap" ] in
  let sp_run = Span.id tr "net.run" and sp_tap = Span.id tr "refine.tap" in
  let parent = ref (-1) in
  let t0 = Span.now_ns () in
  let runs =
    List.init episodes (fun index ->
        run_episode ~tracing:(tr, sp_run, sp_tap, parent) sz
          ~seed:(Meter.episode_seed ~seed ~episode:index ~lane:0))
  in
  let wall_ns = Span.now_ns () - t0 in
  let sum f = List.fold_left (fun acc (s, _) -> acc + f s) 0 runs in
  let sumc f = List.fold_left (fun acc (_, a) -> acc + f (Lease_adapter.check a)) 0 runs in
  let sessions = sum (fun s -> s.Net_churn.sessions) in
  let net f = sum (fun s -> f s.Net_churn.net) and dd f = sum (fun s -> f s.Net_churn.dedup) in
  let det f = sum (fun s -> f s.Net_churn.detector) in
  let sent = net (fun n -> n.Transport.sent) in
  let admitted =
    dd (fun d -> d.Dedup.fresh) + dd (fun d -> d.Dedup.replays) + dd (fun d -> d.Dedup.stale)
  in
  let sim_time = List.fold_left (fun acc (s, _) -> acc +. s.Net_churn.sim_time) 0. runs in
  let per_session x = Meter.ratio x sessions in
  let refine_events = sumc Check.events in
  let heap_words =
    List.fold_left (fun acc (_, a) -> max acc (Obj.reachable_words (Obj.repr a))) 0 runs
  in
  let violations = List.concat_map (fun r -> let _, _, _, v = episode_counts r in v) runs in
  let n = float_of_int episodes in
  let tns, twords =
    transport_loop ~msgs:(sent / episodes) ~sim_time:(sim_time /. n) ~seed:(Int64.add seed 1L)
  in
  let dns =
    dedup_loop ~ops:(admitted / episodes)
      ~replay_share:(Meter.ratio (dd (fun d -> d.Dedup.replays)) admitted)
      ~stale_share:(Meter.ratio (dd (fun d -> d.Dedup.stale)) admitted)
      ~sim_time:(sim_time /. n) ~seed:(Int64.add seed 2L)
  in
  ( tr,
    violations,
    wall_ns,
    [
      Meter.m "transport.msgs_per_session" "msgs" (per_session sent);
      Meter.m "transport.delivered_ratio" "ratio" (Meter.ratio (net (fun n -> n.Transport.delivered)) sent);
      Meter.m "transport.dropped" "msgs" (float_of_int (net (fun n -> n.Transport.dropped)));
      Meter.m "transport.duplicated" "msgs" (float_of_int (net (fun n -> n.Transport.duplicated)));
      Meter.m "transport.ns_per_msg" "ns" tns;
      Meter.m "transport.words_per_msg" "words" twords;
      Meter.m "dedup.replay_ratio" "ratio" (Meter.ratio (dd (fun d -> d.Dedup.replays)) admitted);
      Meter.m "dedup.stale" "count" (float_of_int (dd (fun d -> d.Dedup.stale)));
      Meter.m "dedup.evictions" "count" (float_of_int (dd (fun d -> d.Dedup.evictions)));
      Meter.m "dedup.ns_per_admit" "ns" dns;
      Meter.m "router.redirects_per_session" "count" (per_session (sum (fun s -> s.Net_churn.redirects)));
      Meter.m "router.busy_per_session" "count"
        (per_session (sum (fun s -> s.Net_churn.shard_down_busy + s.Net_churn.in_handoff_busy)));
      Meter.m "router.adoptions" "count" (float_of_int (sum (fun s -> s.Net_churn.router.Router.adoptions)));
      Meter.m "router.detector.suspicions" "count" (float_of_int (det (fun d -> d.Router.suspicions)));
      Meter.m "router.detector.recoveries" "count" (float_of_int (det (fun d -> d.Router.recoveries)));
      Meter.m "net.resends_per_session" "msgs" (per_session (sum (fun s -> s.Net_churn.resends)));
      Meter.m "net.events_per_session" "events" (per_session (sum (fun s -> s.Net_churn.events)));
      Meter.m "refine.net.tap_ns_per_event" "ns" (Meter.ratio (Span.total_ns tr sp_tap) (Span.count tr sp_tap));
      Meter.m "refine.net.events_per_session" "events" (per_session refine_events);
      Meter.m "refine.net.stutter_ratio" "ratio" (Meter.ratio (sumc Check.stutters) refine_events);
      Meter.m "refine.net.violations" "count" (float_of_int (sumc Check.violations));
      Meter.m "refine.heap_mb" "MB" (Meter.mb_of_words heap_words);
    ] )

(* ---- workload interface ---- *)

let episode sz ~seed ~index =
  Meter.measure (fun () ->
      episode_counts (run_episode sz ~seed:(Meter.episode_seed ~seed ~episode:index ~lane:0)))

module Net_churn = Renaming_service.Net_churn
module Service = Renaming_service.Service
module Transport = Renaming_service.Transport
module Hist = Renaming_obs.Hist

(* T17: the lease service under closed-loop crash-restart churn.  Each
   row is one run of the churn driver's service preset (two slices of 32
   on a perfect network, no node faults); the claim under measurement is
   graceful degradation — grants keep flowing, crashed clients' names
   come back via lease reclamation (never a double grant), overload is
   resolved by structured shedding/timeouts rather than collapse. *)
let t17 scale =
  let table =
    Table.create ~title:"T17: lease-based renaming service under churn (crash/reclaim/shed)"
      ~columns:
        [
          "cell"; "sessions"; "crash%"; "grants"; "reclaims"; "sheds"; "expired";
          "stale fenced"; "probes/grant"; "reclaim p-mean"; "peak held"; "safe";
        ]
  in
  let sessions =
    match scale with Runcfg.Quick -> 20_000 | Runcfg.Full -> 150_000
  in
  let router = Renaming_service.Net_campaign.service_router in
  let base =
    Net_churn.make_config ~sessions_target:sessions ~faults:Transport.perfect ~stale_wakeup:0.25
      ~max_attempts:6
  in
  let cells =
    [
      ("steady", base ~clients:128 ~crash_rate:0.2 ~router:(router ()) ());
      ( "queue-only",
        base ~clients:192 ~crash_rate:0.2
          ~router:(router ~high_water:1.5 ~queue_limit:16 ~request_timeout:2.0 ())
          () );
      ( "hot-zipf",
        base ~clients:128 ~crash_rate:0.35 ~zipf_s:1.4 ~mean_think:1.5 ~router:(router ()) () );
    ]
  in
  List.iter
    (fun (name, (cfg : Net_churn.config)) ->
      let s = Net_churn.run cfg ~seed:(Seeds.take 1).(0) in
      let sv = s.Net_churn.service in
      Table.add_row table
        [
          name;
          Table.cell_int s.Net_churn.sessions;
          Table.cell_float ~decimals:0 (100. *. cfg.Net_churn.crash_rate);
          Table.cell_int sv.Service.grants;
          Table.cell_int sv.Service.reclaims;
          Table.cell_int (sv.Service.sheds_high_water + sv.Service.sheds_queue_full);
          Table.cell_int sv.Service.expired_requests;
          Table.cell_int s.Net_churn.stale_fenced;
          Table.cell_float (Hist.mean s.Net_churn.h_probes);
          Table.cell_float (Hist.mean s.Net_churn.h_reclaim);
          Table.cell_int s.Net_churn.peak_held;
          Table.cell_bool
            (s.Net_churn.violation = None && s.Net_churn.gaudit_violations = 0
            && (not s.Net_churn.livelocked)
            && s.Net_churn.stale_fenced = s.Net_churn.stale_ops
            && s.Net_churn.unexpected_fenced = 0);
        ])
    cells;
  Table.add_note table
    "safe = no audit violation, no livelock, every stale (crashed-then-woken) operation fenced; probes/grant and reclaim p-mean merge both slices' histograms (reclaim p-mean is mean centiticks between lease expiry and reclamation)";
  table

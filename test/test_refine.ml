(* Tests for the refinement layer: the centralized spec's transition
   rules and invariants (unit + qcheck), the announce encoding, the
   executor and lease adapters, the shared telemetry counters, the
   observation-changes-nothing guarantee, and the seeded spec-divergence
   mutant (caught, shrunk, artifact round-trips). *)

module Spec = Renaming_refine.Spec
module Obs_event = Renaming_refine.Obs_event
module Check = Renaming_refine.Check
module Exec_adapter = Renaming_refine.Exec_adapter
module Lease_adapter = Renaming_refine.Lease_adapter
module Grant_model = Renaming_refine.Grant_model
module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Adversary = Renaming_sched.Adversary
module Report = Renaming_sched.Report
module Shrink = Renaming_faults.Shrink
module Fuzz = Renaming_fuzz.Fuzz
module Fuzz_roster = Renaming_harness.Fuzz_roster
module Net_churn = Renaming_service.Net_churn
module Net_campaign = Renaming_service.Net_campaign
module Transport = Renaming_service.Transport
module Longlived = Renaming_longlived.Longlived
module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics

let check = Alcotest.check

let verdict : Spec.verdict Alcotest.testable =
  Alcotest.testable
    (fun fmt -> function
      | `Step -> Format.pp_print_string fmt "Step"
      | `Stutter -> Format.pp_print_string fmt "Stutter"
      | `Reject r -> Format.fprintf fmt "Reject %s" r)
    ( = )

let spec ?(namespace = 4) ?(one_shot = true) () = Spec.create { Spec.namespace; one_shot }

let feed t evs = List.map (Spec.apply t) evs

(* --- Obs_event: announce encoding --- *)

let some_events ~session ~name =
  [
    Obs_event.Invoked { session };
    Obs_event.Granted { session; name };
    Obs_event.Claimed { session; name };
    Obs_event.Released { session; name };
    Obs_event.Crashed { session };
    Obs_event.Recovered { session };
    Obs_event.Reclaimed { session; name };
    Obs_event.Shed { session };
  ]

let test_encode_roundtrip () =
  List.iter
    (fun (session, name) ->
      List.iter
        (fun ev ->
          match Obs_event.decode (Obs_event.encode ev) with
          | Some ev' -> check Alcotest.bool (Obs_event.to_string ev) true (ev = ev')
          | None -> Alcotest.failf "decode failed: %s" (Obs_event.to_string ev))
        (some_events ~session ~name))
    [ (0, 0); (1, 5); (4095, 100_000) ]

let test_decode_rejects_garbage () =
  (* Tag 0 is reserved (an untouched register is not an event) and tags
     past the constructor count are malformed. *)
  check Alcotest.bool "zero" true (Obs_event.decode 0 = None);
  List.iter
    (fun tag -> check Alcotest.bool "bad tag" true (Obs_event.decode tag = None))
    [ 9; 10; 15 ]

(* --- Spec: unit transitions --- *)

let test_spec_lifecycle () =
  let t = spec () in
  check (Alcotest.list verdict) "invoke/grant/claim/release"
    [ `Step; `Step; `Stutter; `Step ]
    (feed t
       [
         Obs_event.Invoked { session = 0 };
         Obs_event.Granted { session = 0; name = 1 };
         Obs_event.Claimed { session = 0; name = 1 };
         Obs_event.Released { session = 0; name = 1 };
       ]);
  check Alcotest.int "nothing held" 0 (Spec.held t)

let test_spec_uniqueness () =
  let t = spec () in
  check (Alcotest.list verdict) "second grant of a held name is inexplicable"
    [ `Step; `Step; `Step; `Reject "name-held" ]
    (feed t
       [
         Obs_event.Invoked { session = 0 };
         Obs_event.Granted { session = 0; name = 2 };
         Obs_event.Invoked { session = 1 };
         Obs_event.Granted { session = 1; name = 2 };
       ]);
  check Alcotest.(option int) "holder unchanged" (Some 0) (Spec.holder t ~name:2)

let test_spec_namespace_bound () =
  let t = spec ~namespace:4 () in
  ignore (Spec.apply t (Obs_event.Invoked { session = 0 }));
  check verdict "grant out of range"
    (`Reject "name-out-of-range")
    (Spec.apply t (Obs_event.Granted { session = 0; name = 4 }));
  check verdict "claim out of range"
    (`Reject "name-out-of-range")
    (Spec.apply t (Obs_event.Claimed { session = 0; name = 7 }))

let test_spec_fencing () =
  let t = spec () in
  check verdict "release of an unheld name is the fenced ghost"
    (`Reject "release-not-holder")
    (Spec.apply t (Obs_event.Released { session = 0; name = 1 }));
  check verdict "so is a reclaim"
    (`Reject "reclaim-not-holder")
    (Spec.apply t (Obs_event.Reclaimed { session = 0; name = 1 }));
  check verdict "and an ownership assertion"
    (`Reject "claim-unbacked")
    (Spec.apply t (Obs_event.Claimed { session = 0; name = 1 }))

(* Fencing at the edges of the holder table: names just outside
   [0, namespace), a free name inside it, and sessions that are not
   valid ids (negative, including -1, the table's free-name marker).
   A Released, Reclaimed or Claimed at any of them is rejected, a grant
   to a negative id too, and the name already held stays held by its
   holder. *)
let test_spec_fencing_edges () =
  List.iter
    (fun one_shot ->
      let mode = if one_shot then "one-shot" else "lease" in
      let t = spec ~namespace:4 ~one_shot () in
      ignore
        (feed t
           [ Obs_event.Invoked { session = 0 }; Obs_event.Granted { session = 0; name = 0 } ]);
      let before = Spec.snapshot t in
      List.iter
        (fun (session, name) ->
          let at = Printf.sprintf "%s: session %d, name %d" mode session name in
          check verdict ("release " ^ at) (`Reject "release-not-holder")
            (Spec.apply t (Obs_event.Released { session; name }));
          check verdict ("reclaim " ^ at) (`Reject "reclaim-not-holder")
            (Spec.apply t (Obs_event.Reclaimed { session; name }));
          let claim = if name < 0 || name >= 4 then "name-out-of-range" else "claim-unbacked" in
          check verdict ("claim " ^ at) (`Reject claim)
            (Spec.apply t (Obs_event.Claimed { session; name })))
        [ (0, -1); (0, 4); (0, 2); (1, 0); (-1, -1); (-1, 4); (-1, 2); (min_int, 3) ];
      check Alcotest.string (mode ^ ": rejects change nothing") before (Spec.snapshot t);
      (* A negative id can never become a holder, so it can never be
         confused with a free name. *)
      List.iter
        (fun session ->
          ignore (Spec.apply t (Obs_event.Invoked { session }));
          check verdict
            (Printf.sprintf "%s: grant to session %d" mode session)
            (`Reject "session-out-of-range")
            (Spec.apply t (Obs_event.Granted { session; name = 1 })))
        [ -1; min_int ];
      check Alcotest.int (mode ^ ": one name held") 1 (Spec.held t);
      check Alcotest.(option int) (mode ^ ": holder kept") (Some 0) (Spec.holder t ~name:0);
      List.iter
        (fun name ->
          check Alcotest.(option int)
            (Printf.sprintf "%s: name %d has no holder" mode name)
            None (Spec.holder t ~name))
        [ -1; 1; 4 ])
    [ true; false ]

let test_spec_one_shot_invocation () =
  let t = spec () in
  check verdict "grant needs an invocation"
    (`Reject "grant-without-invoke")
    (Spec.apply t (Obs_event.Granted { session = 0; name = 0 }));
  check (Alcotest.list verdict) "reclaim clears the invocation"
    [ `Step; `Step; `Step ]
    (feed t
       [
         Obs_event.Invoked { session = 0 };
         Obs_event.Granted { session = 0; name = 0 };
         Obs_event.Reclaimed { session = 0; name = 0 };
       ]);
  check verdict "post-reclaim regrant without re-invoke is the seeded bug"
    (`Reject "grant-without-invoke")
    (Spec.apply t (Obs_event.Granted { session = 0; name = 0 }));
  check (Alcotest.list verdict) "re-invoking re-enables the grant"
    [ `Step; `Step ]
    (feed t [ Obs_event.Invoked { session = 0 }; Obs_event.Granted { session = 0; name = 0 } ]);
  check verdict "one claim per one-shot session" (`Reject "double-hold")
    (Spec.apply t (Obs_event.Granted { session = 0; name = 1 }))

let test_spec_lease_mode () =
  (* Lease discipline: no invocation bookkeeping, several live leases
     per session are legal (an abandoned queue ticket can grant after
     the retry already did). *)
  let t = spec ~one_shot:false () in
  check (Alcotest.list verdict) "multi-hold without invocations"
    [ `Step; `Step ]
    (feed t
       [ Obs_event.Granted { session = 0; name = 0 }; Obs_event.Granted { session = 0; name = 1 } ]);
  check verdict "uniqueness still binds" (`Reject "name-held")
    (Spec.apply t (Obs_event.Granted { session = 1; name = 0 }))

let test_spec_crash_abandons_claims () =
  let t = spec () in
  check (Alcotest.list verdict) "grant, crash"
    [ `Step; `Step; `Step ]
    (feed t
       [
         Obs_event.Invoked { session = 0 };
         Obs_event.Granted { session = 0; name = 0 };
         Obs_event.Crashed { session = 0 };
       ]);
  ignore (Spec.apply t (Obs_event.Invoked { session = 1 }));
  check verdict "the crashed holder's name stays consumed"
    (`Reject "name-held")
    (Spec.apply t (Obs_event.Granted { session = 1; name = 0 }));
  check verdict "no grant while crashed" (`Reject "grant-while-crashed")
    (Spec.apply t (Obs_event.Granted { session = 0; name = 1 }));
  check (Alcotest.list verdict)
    "the recovered re-run may re-discover its old name and win a fresh one"
    [ `Step; `Stutter; `Step ]
    (feed t
       [
         Obs_event.Recovered { session = 0 };
         Obs_event.Claimed { session = 0; name = 0 };
         Obs_event.Granted { session = 0; name = 1 };
       ])

(* --- Spec: qcheck properties --- *)

let event_gen =
  QCheck.Gen.(
    let session = int_range 0 3 in
    (* Names deliberately straddle the namespace bound (4) so the
       generator exercises rejects too. *)
    let name = int_range 0 5 in
    oneof
      [
        map (fun s -> Obs_event.Invoked { session = s }) session;
        map2 (fun s n -> Obs_event.Granted { session = s; name = n }) session name;
        map2 (fun s n -> Obs_event.Claimed { session = s; name = n }) session name;
        map2 (fun s n -> Obs_event.Released { session = s; name = n }) session name;
        map (fun s -> Obs_event.Crashed { session = s }) session;
        map (fun s -> Obs_event.Recovered { session = s }) session;
        map2 (fun s n -> Obs_event.Reclaimed { session = s; name = n }) session name;
        map (fun s -> Obs_event.Shed { session = s }) session;
      ])

let trace_arb =
  QCheck.make
    ~print:(fun evs -> String.concat "; " (List.map Obs_event.to_string evs))
    QCheck.Gen.(list_size (int_range 0 60) event_gen)

let qcheck_spec_deterministic =
  QCheck.Test.make ~name:"spec: same trace, same verdicts, same state" ~count:300 trace_arb
    (fun evs ->
      List.iter
        (fun one_shot ->
          let a = spec ~one_shot () and b = spec ~one_shot () in
          let va = feed a evs and vb = feed b evs in
          if va <> vb then QCheck.Test.fail_report "verdicts diverged";
          if Spec.snapshot a <> Spec.snapshot b then QCheck.Test.fail_report "state diverged")
        [ true; false ];
      true)

let qcheck_spec_invariants =
  (* After every event — accepted, stuttered or rejected — the reachable
     state satisfies the invariants, and a reject changes nothing. *)
  QCheck.Test.make ~name:"spec: invariants hold along every trace, rejects change nothing"
    ~count:300 trace_arb (fun evs ->
      let t = spec () in
      List.iter
        (fun ev ->
          let before = Spec.snapshot t in
          let v = Spec.apply t ev in
          (match v with
          | `Reject _ ->
              if Spec.snapshot t <> before then
                QCheck.Test.fail_report "a rejected event changed the state"
          | `Stutter ->
              if Spec.snapshot t <> before then
                QCheck.Test.fail_report "a stutter changed the state"
          | `Step -> ());
          let held = ref 0 in
          for name = 0 to 3 do
            match Spec.holder t ~name with
            | Some s ->
                incr held;
                if s < 0 || s > 3 then QCheck.Test.fail_report "holder out of session range"
            | None -> ()
          done;
          if Spec.held t <> !held then
            QCheck.Test.fail_report "held count disagrees with the holder map")
        evs;
      true)

let relabel perm ev =
  let p s = perm.(s) in
  match ev with
  | Obs_event.Invoked { session } -> Obs_event.Invoked { session = p session }
  | Obs_event.Granted { session; name } -> Obs_event.Granted { session = p session; name }
  | Obs_event.Claimed { session; name } -> Obs_event.Claimed { session = p session; name }
  | Obs_event.Released { session; name } -> Obs_event.Released { session = p session; name }
  | Obs_event.Crashed { session } -> Obs_event.Crashed { session = p session }
  | Obs_event.Recovered { session } -> Obs_event.Recovered { session = p session }
  | Obs_event.Reclaimed { session; name } -> Obs_event.Reclaimed { session = p session; name }
  | Obs_event.Shed { session } -> Obs_event.Shed { session = p session }

let qcheck_spec_session_symmetry =
  (* Sessions are interchangeable: relabelling a trace through any
     bijection yields the same verdict sequence, so legal traces are
     closed under pid permutation. *)
  QCheck.Test.make ~name:"spec: verdicts invariant under session permutation" ~count:300
    (QCheck.pair trace_arb (QCheck.make QCheck.Gen.(shuffle_l [ 0; 1; 2; 3 ])))
    (fun (evs, perm_l) ->
      let perm = Array.of_list perm_l in
      List.iter
        (fun one_shot ->
          let a = spec ~one_shot () and b = spec ~one_shot () in
          if feed a evs <> feed b (List.map (relabel perm) evs) then
            QCheck.Test.fail_report "permuted trace produced different verdicts")
        [ true; false ];
      true)

(* --- Exec_adapter --- *)

let test_mode_of_name () =
  let mode = Alcotest.testable (fun fmt (m : Exec_adapter.mode) ->
      Format.pp_print_string fmt
        (match m with Tas -> "Tas" | Returns -> "Returns" | Announce -> "Announce")) ( = )
  in
  check mode "paper algorithm" Exec_adapter.Tas (Exec_adapter.mode_of_name "tight");
  check mode "handoff model" Exec_adapter.Returns (Exec_adapter.mode_of_name "lease-handoff-n3");
  check mode "shard mutant" Exec_adapter.Returns
    (Exec_adapter.mode_of_name "mutant-shard-unfenced-handoff");
  check mode "announce model" Exec_adapter.Announce (Exec_adapter.mode_of_name "refine-grant-n2");
  check mode "announce mutant" Exec_adapter.Announce
    (Exec_adapter.mode_of_name "mutant-refine-regrant")

let linear_scan ~n = Renaming_baselines.Linear_scan.instance { Renaming_baselines.Linear_scan.n; m = n }

let test_tas_adapter_clean_run () =
  let inst = linear_scan ~n:3 in
  let adapter =
    Exec_adapter.create ~mode:Exec_adapter.Tas ~namespace:(Memory.namespace inst.Executor.memory) ()
  in
  let report =
    Executor.run ~adversary:(Adversary.round_robin ()) ~on_event:(Exec_adapter.hook adapter) inst
  in
  let c = Exec_adapter.check adapter in
  check Alcotest.int "all named" 3 (Report.named_count report);
  check Alcotest.int "no violations" 0 (Check.violations c);
  check Alcotest.bool "grants stepped the spec" true (Check.steps c >= 3);
  check Alcotest.int "everything granted is still held" 3 (Spec.held (Check.spec c))

let test_tas_adapter_rejects_unheld_return () =
  (* A paper algorithm returns only a name it TAS-won, so a return of a
     name nobody holds is an unbacked claim — not a grant. *)
  let adapter = Exec_adapter.create ~mode:Exec_adapter.Tas ~namespace:4 () in
  match Exec_adapter.hook adapter (Executor.Returned { time = 0; pid = 0; value = Some 2 }) with
  | exception Renaming_faults.Monitor.Violation { kind; _ } ->
      check Alcotest.string "kind" "refine:claim-unbacked" kind
  | () -> Alcotest.fail "a return of a name nobody holds was accepted"

let test_observation_changes_nothing_executor () =
  let bare = Executor.run ~adversary:(Adversary.round_robin ()) (linear_scan ~n:4) in
  let inst = linear_scan ~n:4 in
  let hook =
    Exec_adapter.hook_for () ~name:"linear-scan-n4" ~namespace:(Memory.namespace inst.Executor.memory)
  in
  let observed = Executor.run ~adversary:(Adversary.round_robin ()) ~on_event:hook inst in
  check Alcotest.bool "identical report" true (bare = observed)

let test_announce_model_clean_round_robin () =
  (* Fair schedules never let the reclaimer settle first — both the
     clean model and the mutant are clean here, which is exactly why the
     mutant needs the fuzzer (and the refinement checker) to be seen. *)
  List.iter
    (fun (label, inst) ->
      let adapter =
        Exec_adapter.create ~mode:Exec_adapter.Announce
          ~namespace:(Memory.namespace inst.Executor.memory) ()
      in
      ignore
        (Executor.run ~adversary:(Adversary.round_robin ()) ~on_event:(Exec_adapter.hook adapter)
           inst);
      check Alcotest.int (label ^ ": no violations") 0 (Check.violations (Exec_adapter.check adapter));
      check Alcotest.bool (label ^ ": announces heard") true
        (Check.steps (Exec_adapter.check adapter) > 0))
    [
      ("clean", Grant_model.instance ~n:2 ~seed:0L);
      ("mutant", Grant_model.instance_regrant ~n:2 ~seed:0L);
    ]

(* --- telemetry counters --- *)

let test_obs_counters () =
  let obs = Obs.create () in
  let run_once () =
    let inst = linear_scan ~n:3 in
    let adapter =
      Exec_adapter.create ~obs ~mode:Exec_adapter.Tas
        ~namespace:(Memory.namespace inst.Executor.memory) ()
    in
    ignore
      (Executor.run ~adversary:(Adversary.round_robin ()) ~on_event:(Exec_adapter.hook adapter) inst);
    Exec_adapter.check adapter
  in
  (* Two checkers sharing one registry: the counters are get-or-create
     and accumulate across traces. *)
  let c1 = run_once () in
  let c2 = run_once () in
  let m = Obs.metrics obs in
  check Alcotest.(option int) "refine/events"
    (Some (Check.events c1 + Check.events c2))
    (Metrics.find_counter m "refine/events");
  check Alcotest.(option int) "refine/stutters"
    (Some (Check.stutters c1 + Check.stutters c2))
    (Metrics.find_counter m "refine/stutters");
  check Alcotest.(option int) "refine/violations" (Some 0)
    (Metrics.find_counter m "refine/violations")

(* --- Lease_adapter over the service backend --- *)

(* The churn driver's service preset at test size: 16 names over the
   smallest router on a perfect network, observed through the router
   tap. *)
let churn_config () =
  Net_churn.make_config ~clients:8 ~sessions_target:150 ~faults:Transport.perfect
    ~router:(Net_campaign.service_router ~slice_capacity:8 ())
    ()

let test_lease_adapter_clean_churn () =
  let cfg = churn_config () in
  let adapter, tap = Lease_adapter.of_router cfg.Net_churn.router in
  let summary = Net_churn.run ~tap cfg ~seed:7L in
  let c = Lease_adapter.check adapter in
  check Alcotest.bool "churn ran" true (summary.Net_churn.sessions >= 150);
  check Alcotest.int "no violations" 0 (Check.violations c);
  check Alcotest.bool "grants heard" true (Check.steps c > 0);
  check Alcotest.bool "renewals stuttered" true (Check.stutters c > 0)

let test_observation_changes_nothing_service () =
  let cfg = churn_config () in
  let bare = Net_churn.run cfg ~seed:7L in
  let _, tap = Lease_adapter.of_router cfg.Net_churn.router in
  let tapped = Net_churn.run ~tap cfg ~seed:7L in
  check Alcotest.bool "identical summary" true (bare = tapped)

(* --- the seeded spec-divergence mutant --- *)

let test_refine_mutant_caught_and_shrunk () =
  let regrant =
    List.filter (fun t -> t.Fuzz.fz_name = "mutant-refine-regrant") (Fuzz_roster.mutants ())
  in
  let summary = Fuzz.run ~refine:(Exec_adapter.hook_for ()) ~seed:1L ~iterations:50 regrant in
  check Alcotest.bool "fuzz campaign ok (mutant found, shrunk)" true (Fuzz.ok summary);
  let v =
    match List.concat_map (fun r -> r.Fuzz.r_violations) summary.Fuzz.s_results with
    | v :: _ -> v
    | [] -> Alcotest.fail "no violation recorded"
  in
  check Alcotest.string "the refinement checker named the divergence"
    "refine:grant-without-invoke" v.Fuzz.v_kind;
  match v.Fuzz.v_repro with
  | None -> Alcotest.fail "violation was not shrunk to a repro"
  | Some r -> (
      check Alcotest.bool "minimal prefix is short" true (List.length r.Shrink.rp_choices <= 16);
      match Shrink.repro_of_string (Shrink.repro_to_string r) with
      | Error e -> Alcotest.failf "artifact does not round-trip: %s" e
      | Ok r' ->
          check Alcotest.string "algorithm survives" r.Shrink.rp_algorithm r'.Shrink.rp_algorithm;
          check Alcotest.string "kind survives" r.Shrink.rp_kind r'.Shrink.rp_kind;
          check Alcotest.bool "choices survive" true (r.Shrink.rp_choices = r'.Shrink.rp_choices))

let tests =
  [
    ( "refine",
      [
        Alcotest.test_case "obs_event: encode/decode round-trip" `Quick test_encode_roundtrip;
        Alcotest.test_case "obs_event: malformed announces rejected" `Quick
          test_decode_rejects_garbage;
        Alcotest.test_case "spec: grant lifecycle" `Quick test_spec_lifecycle;
        Alcotest.test_case "spec: uniqueness" `Quick test_spec_uniqueness;
        Alcotest.test_case "spec: namespace bound" `Quick test_spec_namespace_bound;
        Alcotest.test_case "spec: fencing" `Quick test_spec_fencing;
        Alcotest.test_case "spec: fencing at the table edges" `Quick test_spec_fencing_edges;
        Alcotest.test_case "spec: one-shot invocation discipline" `Quick
          test_spec_one_shot_invocation;
        Alcotest.test_case "spec: lease mode" `Quick test_spec_lease_mode;
        Alcotest.test_case "spec: crash abandons claims" `Quick test_spec_crash_abandons_claims;
        QCheck_alcotest.to_alcotest qcheck_spec_deterministic;
        QCheck_alcotest.to_alcotest qcheck_spec_invariants;
        QCheck_alcotest.to_alcotest qcheck_spec_session_symmetry;
        Alcotest.test_case "exec adapter: mode resolution" `Quick test_mode_of_name;
        Alcotest.test_case "exec adapter: clean tas run refines" `Quick test_tas_adapter_clean_run;
        Alcotest.test_case "exec adapter: tas return of an unheld name rejected" `Quick
          test_tas_adapter_rejects_unheld_return;
        Alcotest.test_case "exec adapter: observation changes nothing" `Quick
          test_observation_changes_nothing_executor;
        Alcotest.test_case "announce model: clean under fair schedules" `Quick
          test_announce_model_clean_round_robin;
        Alcotest.test_case "telemetry: refine/* counters shared get-or-create" `Quick
          test_obs_counters;
        Alcotest.test_case "lease adapter: churn refines via the audit tap" `Quick
          test_lease_adapter_clean_churn;
        Alcotest.test_case "lease adapter: observation changes nothing" `Quick
          test_observation_changes_nothing_service;
        Alcotest.test_case "mutant: caught, shrunk, artifact round-trips" `Quick
          test_refine_mutant_caught_and_shrunk;
      ] );
  ]

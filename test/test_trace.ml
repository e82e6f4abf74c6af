(* Tests for schedule traces: recording from the executor's event stream
   and exact replay as a strict directed run. *)

module Trace = Renaming_sched.Trace
module Directed = Renaming_sched.Directed
module Program = Renaming_sched.Program
module Memory = Renaming_sched.Memory
module Executor = Renaming_sched.Executor
module Adversary = Renaming_sched.Adversary
module Report = Renaming_sched.Report
module Stream = Renaming_rng.Stream
module Geometric = Renaming_core.Loose_geometric
module Campaign = Renaming_faults.Campaign
module Injector = Renaming_faults.Injector
module Chaos = Renaming_harness.Chaos

let check = Alcotest.check

let scan_competition ~n =
  let memory = Memory.create ~namespace:n () in
  let programs = Array.init n (fun _ -> Program.scan_names ~first:0 ~count:n) in
  { Executor.memory; programs; label = "competition" }

let record ~adversary inst =
  let trace = Trace.create () in
  let report = Executor.run ~on_event:(Trace.record trace) ~adversary inst in
  (trace, report)

(* Replay [trace] against [inst] as a strict directed run; a divergence
   escapes as [Directed.Divergence]. *)
let replay trace inst =
  match (Directed.run ~strict:true ~prefix:(Trace.choices trace) inst).Directed.outcome with
  | Directed.Finished report -> report
  | Directed.Raised e -> raise e

let test_record_counts_events () =
  let trace, report = record ~adversary:(Adversary.round_robin ()) (scan_competition ~n:8) in
  check Alcotest.int "one event per tick" report.Report.ticks (Trace.length trace)

let test_replay_reproduces_run () =
  (* Record a run under a random adversary, then replay: the reports
     must match field by field. *)
  let rng = Stream.fork_named (Stream.create 11L) ~name:"adv" in
  let trace, original = record ~adversary:(Adversary.uniform rng) (scan_competition ~n:12) in
  let replayed = replay trace (scan_competition ~n:12) in
  check Alcotest.int "same ticks" original.Report.ticks replayed.Report.ticks;
  check
    Alcotest.(array (option int))
    "same assignment" original.Report.assignment.Renaming_shm.Assignment.names
    replayed.Report.assignment.Renaming_shm.Assignment.names;
  check Alcotest.int "same max steps" (Report.max_steps original) (Report.max_steps replayed)

let test_replay_reproduces_randomized_algorithm () =
  (* Same but with a randomized algorithm: seeds pin the coin flips, the
     trace pins the schedule. *)
  let cfg = { Geometric.n = 256; ell = 2 } in
  let rng = Stream.fork_named (Stream.create 13L) ~name:"adv" in
  let build () = Geometric.instance cfg ~stream:(Stream.create 77L) in
  let trace, original = record ~adversary:(Adversary.uniform rng) (build ()) in
  let replayed = replay trace (build ()) in
  check
    Alcotest.(array (option int))
    "identical assignment" original.Report.assignment.Renaming_shm.Assignment.names
    replayed.Report.assignment.Renaming_shm.Assignment.names

let test_replay_with_crashes () =
  let base =
    Adversary.with_crashes ~base:(Adversary.round_robin ()) ~crash_times:[ (3, 1); (5, 4) ]
  in
  let trace, original = record ~adversary:base (scan_competition ~n:8) in
  let replayed = replay trace (scan_competition ~n:8) in
  check Alcotest.(list int) "same crash set" original.Report.crashed replayed.Report.crashed

let test_census () =
  let trace, _ = record ~adversary:(Adversary.round_robin ()) (scan_competition ~n:4) in
  let census = Trace.census trace in
  match List.assoc_opt "tas-name" census with
  | Some count -> check Alcotest.bool "tas ops recorded" true (count > 0)
  | None -> Alcotest.fail "expected tas-name in census"

let test_replay_divergence_detected () =
  let trace, _ = record ~adversary:(Adversary.round_robin ()) (scan_competition ~n:6) in
  (* Replaying against a SMALLER instance diverges: pids in the trace
     are eventually not runnable (they finish earlier with fewer
     competitors), or the trace outlives the run.  The failure must be
     the structured {!Directed.Divergence}, not a bare Failure. *)
  (match replay trace (scan_competition ~n:3) with
  | exception Directed.Divergence d ->
    check Alcotest.bool "failing event index in range" true
      (d.Directed.at >= 0 && d.Directed.at <= Trace.length trace);
    check Alcotest.bool "expected action names a trace pid or exhaustion" true
      (match d.Directed.expected with
      | `Schedule pid | `Fault pid | `Crash pid | `Recover pid -> pid >= 0 && pid < 6
      | `Exhausted -> true);
    (* The runnable set the replayer actually saw: a subset of the small
       instance's pids, sorted. *)
    List.iter
      (fun pid -> check Alcotest.bool "runnable pid in small instance" true (pid >= 0 && pid < 3))
      d.Directed.runnable;
    check Alcotest.(list int) "runnable sorted" (List.sort compare d.Directed.runnable)
      d.Directed.runnable;
    check Alcotest.(list int) "nobody crashed" [] d.Directed.crashed;
    (* pp_divergence renders without raising and mentions the index. *)
    let rendered = Format.asprintf "%a" Directed.pp_divergence d in
    check Alcotest.bool "pretty-printer mentions decision index" true
      (let needle = Printf.sprintf "decision %d" d.Directed.at in
       let n = String.length rendered and m = String.length needle in
       let rec go i = i + m <= n && (String.sub rendered i m = needle || go (i + 1)) in
       go 0)
  | _ -> Alcotest.fail "expected Directed.Divergence")

let test_replay_divergence_on_exhaustion () =
  (* A recorded schedule runs out of events while processes of a larger
     instance are still runnable: `Exhausted, at the trace length. *)
  let trace, _ = record ~adversary:(Adversary.round_robin ()) (scan_competition ~n:2) in
  match replay trace (scan_competition ~n:4) with
  | exception Directed.Divergence d ->
    check Alcotest.bool "exhausted" true (d.Directed.expected = `Exhausted);
    check Alcotest.int "at the end of the trace" (Trace.length trace) d.Directed.at;
    check Alcotest.bool "someone still runnable" true (d.Directed.runnable <> [])
  | _ -> Alcotest.fail "expected Directed.Divergence (trace exhausted)"

(* The chaos roster under every adversary, crash recovery and transient
   faults: the schedule read off the event stream replays as a strict
   directed run to the same report, consuming exactly the prefix.  A
   faulted step must come back as a [Fault] choice, or the replay's
   memory differs from the recording's. *)
let test_event_stream_replays_exactly () =
  let n = 24 and max_ticks = 200_000 in
  let pattern =
    List.find (fun p -> p.Campaign.pat_name = "crash-recovery") (Chaos.patterns ~n)
  in
  let faults = ref 0 and crashes = ref 0 and recoveries = ref 0 in
  List.iter
    (fun (algo : Campaign.algorithm) ->
      List.iter
        (fun (adv : Campaign.adversary_spec) ->
          List.iter
            (fun rate ->
              List.iter
                (fun seed ->
                  let label =
                    Printf.sprintf "%s/%s/%g/%Ld" algo.Campaign.algo_name adv.Campaign.adv_name
                      rate seed
                  in
                  let adversary =
                    Adversary.with_crash_recovery ~base:(adv.Campaign.make_adversary ~seed)
                      ~crashes:(pattern.Campaign.schedule ~seed ~n)
                      ~recover_after:(Option.get (pattern.Campaign.recover_after ~n))
                  in
                  let inject =
                    Injector.bernoulli ~rate
                      ~rng:(Stream.fork_named (Stream.create seed) ~name:"campaign-faults")
                  in
                  let trace = Trace.create () in
                  let original =
                    Executor.run ~max_ticks ~inject ~on_event:(Trace.record trace) ~adversary
                      (algo.Campaign.build ~seed)
                  in
                  let prefix = Trace.choices trace in
                  List.iter
                    (function
                      | Directed.Fault _ -> incr faults
                      | Directed.Crash _ -> incr crashes
                      | Directed.Recover _ -> incr recoveries
                      | Directed.Step _ -> ())
                    prefix;
                  let run =
                    Directed.run ~strict:true ~max_ticks ~prefix (algo.Campaign.build ~seed)
                  in
                  match run.Directed.outcome with
                  | Directed.Raised e -> Alcotest.failf "%s: %s" label (Printexc.to_string e)
                  | Directed.Finished replayed ->
                    check Alcotest.int (label ^ " consumes the prefix") (List.length prefix)
                      (Array.length run.Directed.taken);
                    check Alcotest.int (label ^ " ticks") original.Report.ticks
                      replayed.Report.ticks;
                    check
                      Alcotest.(array (option int))
                      (label ^ " assignment")
                      original.Report.assignment.Renaming_shm.Assignment.names
                      replayed.Report.assignment.Renaming_shm.Assignment.names;
                    check Alcotest.(list int) (label ^ " crashed") original.Report.crashed
                      replayed.Report.crashed;
                    check Alcotest.(list int) (label ^ " recovered") original.Report.recovered
                      replayed.Report.recovered)
                [ 1L; 2L ])
            [ 0.; 0.1 ])
        (Chaos.adversaries ()))
    (Chaos.algorithms ~n);
  check Alcotest.bool "faults were injected" true (!faults > 0);
  check Alcotest.bool "processes crashed" true (!crashes > 0);
  check Alcotest.bool "processes recovered" true (!recoveries > 0)

let tests =
  [
    ( "trace",
      [
        Alcotest.test_case "records events" `Quick test_record_counts_events;
        Alcotest.test_case "replay reproduces run" `Quick test_replay_reproduces_run;
        Alcotest.test_case "replay randomized algorithm" `Quick test_replay_reproduces_randomized_algorithm;
        Alcotest.test_case "replay with crashes" `Quick test_replay_with_crashes;
        Alcotest.test_case "census" `Quick test_census;
        Alcotest.test_case "replay divergence" `Quick test_replay_divergence_detected;
        Alcotest.test_case "replay divergence on exhaustion" `Quick
          test_replay_divergence_on_exhaustion;
        Alcotest.test_case "event-stream schedules replay exactly" `Quick
          test_event_stream_replays_exactly;
      ] );
  ]

(* --- appended: timeline rendering --- *)

let test_timeline_renders () =
  let trace, _ = record ~adversary:(Adversary.round_robin ()) (scan_competition ~n:3) in
  let s = Format.asprintf "%a" (Trace.pp_timeline ?max_pids:None ?max_events:None) trace in
  check Alcotest.bool "has lanes" true (String.length s > 0);
  (* three lanes expected *)
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> String.length l > 2 && l.[0] = 'p') in
  check Alcotest.int "three lanes" 3 (List.length lines)

let timeline_tests =
  [ ("trace-timeline", [ Alcotest.test_case "timeline renders" `Quick test_timeline_renders ]) ]

let tests = tests @ timeline_tests

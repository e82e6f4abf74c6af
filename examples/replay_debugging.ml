(* Record/replay debugging: capture an adversarial execution as a
   schedule trace from the executor's event stream, visualise it, and
   replay it bit-for-bit as a strict directed run.

   The algorithm's coin flips are pinned by the seed; the trace pins the
   only remaining nondeterminism — the adversary's decisions — so a
   "heisenbug" execution can be replayed exactly and inspected.

   Run with:  dune exec examples/replay_debugging.exe *)

module Trace = Renaming_sched.Trace
module Directed = Renaming_sched.Directed
module Executor = Renaming_sched.Executor
module Adversary = Renaming_sched.Adversary
module Report = Renaming_sched.Report
module Stream = Renaming_rng.Stream
module Combined = Renaming_core.Combined

let cfg = { Renaming_core.Combined.n = 12; variant = Combined.Geometric { ell = 1 } }

let build () = Combined.instance cfg ~stream:(Stream.create 4242L)

let () =
  (* 1. Run under a nasty adversary, recording every decision. *)
  let trace = Trace.create () in
  let crashing =
    Adversary.with_crashes
      ~base:(Adversary.uniform (Stream.fork_named (Stream.create 7L) ~name:"adv"))
      ~crash_times:[ (5, 2); (11, 9) ]
  in
  let original = Executor.run ~on_event:(Trace.record trace) ~adversary:crashing (build ()) in
  Format.printf "original run:@.%a@.@." Report.pp original;

  (* 2. Inspect the captured schedule. *)
  Format.printf "%a@." Trace.pp_summary trace;
  Format.printf "timeline (t = TAS, X = crash, . = idle):@.%a@."
    (Trace.pp_timeline ?max_pids:None ?max_events:None)
    trace;

  (* 3. Replay: same seeds + same schedule = identical execution.  A
     strict directed run stops with [Directed.Divergence] on the first
     decision that does not apply, or if the prefix runs out early. *)
  let prefix = Trace.choices trace in
  let run = Directed.run ~strict:true ~prefix (build ()) in
  let replayed =
    match run.Directed.outcome with
    | Directed.Finished report -> report
    | Directed.Raised e -> raise e
  in
  let same =
    Array.length run.Directed.taken = List.length prefix
    && original.Report.assignment.Renaming_shm.Assignment.names
    = replayed.Report.assignment.Renaming_shm.Assignment.names
    && original.Report.ticks = replayed.Report.ticks
    && original.Report.crashed = replayed.Report.crashed
  in
  Format.printf "@.replay identical to original: %b@." same;
  assert same;
  Format.printf
    "Any assertion you add to the algorithm can now be debugged against this exact@.\
     execution — the adversarial schedule is data, not luck.@."

module Executor = Renaming_sched.Executor
module Memory = Renaming_sched.Memory
module Report = Renaming_sched.Report
module Directed = Renaming_sched.Directed
module Step_ledger = Renaming_shm.Step_ledger

type violation = { kind : string; message : string }

exception Violation of violation

let () =
  Printexc.register_printer (function
    | Violation { kind; message } -> Some (Printf.sprintf "Monitor.Violation[%s]: %s" kind message)
    | _ -> None)

type refine = name:string -> namespace:int -> Executor.event -> unit

(* Trace excerpt length: events kept for a violation message. *)
let window = 24

type t = {
  processes : int;
  spec : Executor.event -> unit;
  steps : int array;
  mutable total_steps : int;
  crashed : bool array;
  has_returned : bool array;
  returned : int option array;
  (* Ring buffer of recent events, for the fail-fast trace excerpt. *)
  ring : string array;
  mutable ring_filled : int;
  mutable ring_next : int;
}

let create ~refine ~name (inst : Executor.instance) =
  let processes = Array.length inst.Executor.programs in
  {
    processes;
    spec = refine ~name ~namespace:(Memory.namespace inst.Executor.memory);
    steps = Array.make processes 0;
    total_steps = 0;
    crashed = Array.make processes false;
    has_returned = Array.make processes false;
    returned = Array.make processes None;
    ring = Array.make window "";
    ring_filled = 0;
    ring_next = 0;
  }

let remember t event =
  t.ring.(t.ring_next) <- Format.asprintf "%a" Executor.pp_event event;
  t.ring_next <- (t.ring_next + 1) mod Array.length t.ring;
  if t.ring_filled < Array.length t.ring then t.ring_filled <- t.ring_filled + 1

let excerpt t =
  let w = Array.length t.ring in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "trace excerpt (oldest first):";
  for i = 0 to t.ring_filled - 1 do
    let idx = (t.ring_next - t.ring_filled + i + w) mod w in
    Buffer.add_string buf "\n  ";
    Buffer.add_string buf t.ring.(idx)
  done;
  Buffer.contents buf

let fail t ~kind fmt =
  Format.kasprintf
    (fun msg ->
      raise
        (Violation
           { kind; message = Printf.sprintf "safety violation: %s\n%s" msg (excerpt t) }))
    fmt

let check_pid t pid =
  if pid < 0 || pid >= t.processes then fail t ~kind:"unknown-pid" "unknown pid %d" pid

let hook t (event : Executor.event) =
  remember t event;
  (match event with
  | Executor.Stepped { pid; time; op; _ } ->
    check_pid t pid;
    if t.crashed.(pid) then
      fail t ~kind:"step-after-crash" "process %d stepped (%a) at t=%d after crashing" pid
        Renaming_sched.Op.pp op time;
    if t.has_returned.(pid) then
      fail t ~kind:"step-after-return" "process %d stepped (%a) at t=%d after returning" pid
        Renaming_sched.Op.pp op time;
    t.steps.(pid) <- t.steps.(pid) + 1;
    t.total_steps <- t.total_steps + 1
  | Executor.Crashed { pid; time } ->
    check_pid t pid;
    if t.crashed.(pid) then fail t ~kind:"double-crash" "process %d crashed twice (t=%d)" pid time;
    if t.has_returned.(pid) then
      fail t ~kind:"crash-after-return" "process %d crashed at t=%d after returning" pid time;
    t.crashed.(pid) <- true
  | Executor.Recovered { pid; time } ->
    check_pid t pid;
    if not t.crashed.(pid) then
      fail t ~kind:"recover-of-live" "process %d recovered at t=%d without being crashed" pid time;
    t.crashed.(pid) <- false
  | Executor.Returned { pid; value; time } ->
    check_pid t pid;
    if t.has_returned.(pid) then
      fail t ~kind:"double-return" "process %d returned twice (t=%d)" pid time;
    if t.crashed.(pid) then
      fail t ~kind:"return-while-crashed" "process %d returned at t=%d while crashed" pid time;
    t.has_returned.(pid) <- true;
    t.returned.(pid) <- value);
  t.spec event

let finalize t (report : Report.t) =
  for pid = 0 to t.processes - 1 do
    let ledger_steps = Step_ledger.steps_of report.Report.ledger ~pid in
    if ledger_steps <> t.steps.(pid) then
      fail t ~kind:"ledger-mismatch"
        "step-ledger mismatch for process %d: ledger says %d, monitor counted %d" pid ledger_steps
        t.steps.(pid)
  done;
  if report.Report.ticks <> t.total_steps then
    fail t ~kind:"tick-mismatch" "tick mismatch: report says %d, monitor counted %d"
      report.Report.ticks t.total_steps;
  Array.iteri
    (fun pid value ->
      match value with
      | None -> ()
      | Some name ->
        if t.returned.(pid) <> Some name then
          fail t ~kind:"assignment-mismatch"
            "final assignment gives %d to process %d but the monitor never saw that return" name
            pid)
    report.Report.assignment.Renaming_shm.Assignment.names

type failure = { f_kind : string; f_message : string }

type verdict = Clean of Report.t | Livelocked of Report.t | Failed of failure

let verdict t (outcome : Directed.outcome) =
  match outcome with
  | Raised (Violation v) -> Failed { f_kind = v.kind; f_message = v.message }
  | Raised e ->
    Failed { f_kind = "exception:" ^ Printexc.exn_slot_name e; f_message = Printexc.to_string e }
  | Finished report -> (
    match finalize t report with
    | exception Violation v -> Failed { f_kind = v.kind; f_message = v.message }
    | () -> if Report.is_livelock report then Livelocked report else Clean report)

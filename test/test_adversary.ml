(* Direct unit tests for the scheduling adversaries: views are built by
   hand so each strategy's decision rule is pinned down without running
   a whole simulation. *)

module Adversary = Renaming_sched.Adversary
module Memory = Renaming_sched.Memory
module Op = Renaming_sched.Op
module Executor = Renaming_sched.Executor
module Report = Renaming_sched.Report
module Tas_array = Renaming_shm.Tas_array
module Stream = Renaming_rng.Stream
module Xoshiro = Renaming_rng.Xoshiro
module Params = Renaming_core.Params
module Tight = Renaming_core.Tight
module Combined = Renaming_core.Combined
module Longlived = Renaming_longlived.Longlived
module Arrival = Renaming_workload.Arrival

let check = Alcotest.check

let view ?(time = 0) ?(crashed = []) ?(ops = []) ~memory runnable =
  let runnable = Array.of_list runnable in
  Adversary.scan_view ~time ~runnable_count:(Array.length runnable)
    ~runnable_nth:(fun i -> runnable.(i))
    ~is_runnable:(fun pid -> Array.exists (Int.equal pid) runnable)
    ~is_crashed:(fun pid -> List.mem pid crashed)
    ~pending_op:(fun pid -> match List.assoc_opt pid ops with Some op -> op | None -> Op.Yield)
    ~memory

let decision_to_string = function
  | Adversary.Schedule p -> Printf.sprintf "schedule %d" p
  | Adversary.Crash p -> Printf.sprintf "crash %d" p
  | Adversary.Recover p -> Printf.sprintf "recover %d" p

let decision =
  Alcotest.testable (fun ppf d -> Format.pp_print_string ppf (decision_to_string d)) ( = )

let test_round_robin_fair () =
  let memory = Memory.create ~namespace:4 () in
  let v = view ~memory [ 0; 1; 2 ] in
  let a = Adversary.round_robin () in
  let counts = Array.make 3 0 in
  for _ = 1 to 300 do
    match a.Adversary.decide v with
    | Adversary.Schedule p -> counts.(p) <- counts.(p) + 1
    | d -> Alcotest.failf "round-robin made a non-schedule decision %s" (decision_to_string d)
  done;
  Array.iteri
    (fun pid c -> check Alcotest.int (Printf.sprintf "pid %d scheduled equally" pid) 100 c)
    counts;
  (* The sweep is cyclic, not merely balanced. *)
  let b = Adversary.round_robin () in
  let order = List.init 6 (fun _ -> b.Adversary.decide v) in
  check (Alcotest.list decision) "cyclic order"
    Adversary.[ Schedule 0; Schedule 1; Schedule 2; Schedule 0; Schedule 1; Schedule 2 ]
    order

let test_round_robin_fresh_cursor () =
  (* Each call to [round_robin ()] must return an independent scheduler:
     a shared cursor would couple unrelated executions. *)
  let memory = Memory.create ~namespace:4 () in
  let v = view ~memory [ 0; 1 ] in
  let a = Adversary.round_robin () in
  ignore (a.Adversary.decide v);
  let b = Adversary.round_robin () in
  check decision "fresh scheduler starts at index 0" (Adversary.Schedule 0) (b.Adversary.decide v)

let test_adaptive_contention_prefers_doomed_tas () =
  let memory = Memory.create ~namespace:4 () in
  (* Name 0 is already taken, so pid 2's pending TAS on it is wasted. *)
  ignore (Memory.apply memory ~pid:7 (Op.Tas_name 0));
  let ops = [ (1, Op.Tas_name 1); (2, Op.Tas_name 0) ] in
  let v = view ~memory ~ops [ 1; 2 ] in
  check decision "schedules the doomed TAS" (Adversary.Schedule 2)
    (Adversary.adaptive_contention.Adversary.decide v);
  (* Nobody doomed: falls back to the lowest runnable pid. *)
  let v' = view ~memory ~ops:[ (1, Op.Tas_name 1); (2, Op.Tas_name 2) ] [ 1; 2 ] in
  check decision "fallback is lowest pid" (Adversary.Schedule 1)
    (Adversary.adaptive_contention.Adversary.decide v')

let test_colluding_groups_shared_target () =
  let memory = Memory.create ~namespace:4 () in
  (* Pids 1 and 3 both target free register 2; pid 0 targets register 1
     alone.  The colluding adversary runs the largest group, lowest pid
     first, so all but one of its TAS operations lose. *)
  let ops = [ (0, Op.Tas_name 1); (1, Op.Tas_name 2); (3, Op.Tas_name 2) ] in
  let v = view ~memory ~ops [ 0; 1; 3 ] in
  check decision "schedules the shared-target group" (Adversary.Schedule 1)
    (Adversary.colluding.Adversary.decide v);
  (* No shared targets: lowest runnable pid. *)
  let v' = view ~memory ~ops:[ (0, Op.Tas_name 1); (1, Op.Tas_name 2) ] [ 0; 1 ] in
  check decision "fallback is lowest pid" (Adversary.Schedule 0)
    (Adversary.colluding.Adversary.decide v')

let test_with_crashes_respects_budget () =
  let memory = Memory.create ~namespace:4 () in
  (* Two crash entries: the adversary must issue exactly two crashes, at
     or after their scheduled times, and then behave like its base. *)
  let a = Adversary.with_crashes ~base:(Adversary.round_robin ()) ~crash_times:[ (0, 1); (2, 2) ] in
  check decision "first crash fires" (Adversary.Crash 1)
    (a.Adversary.decide (view ~memory ~time:0 [ 0; 1; 2 ]));
  (* Time 1: the second crash (due at 2) is not due yet. *)
  check decision "not due yet" (Adversary.Schedule 0)
    (a.Adversary.decide (view ~memory ~time:1 [ 0; 2 ]));
  check decision "second crash fires" (Adversary.Crash 2)
    (a.Adversary.decide (view ~memory ~time:2 [ 0; 2 ]));
  (* Budget exhausted: only schedules from here on. *)
  for t = 3 to 20 do
    match a.Adversary.decide (view ~memory ~time:t [ 0 ]) with
    | Adversary.Schedule _ -> ()
    | d -> Alcotest.failf "crash budget exceeded at t=%d: %s" t (decision_to_string d)
  done

let test_with_crashes_never_kills_last_runnable () =
  let memory = Memory.create ~namespace:4 () in
  let a = Adversary.with_crashes ~base:(Adversary.round_robin ()) ~crash_times:[ (0, 0) ] in
  (* Pid 0 is the only runnable process: the crash must be skipped
     (dropped, not deferred), leaving a plain schedule. *)
  check decision "skips the crash" (Adversary.Schedule 0)
    (a.Adversary.decide (view ~memory ~time:5 [ 0 ]));
  (* The skipped entry is dropped, not deferred: no crash later either. *)
  (match a.Adversary.decide (view ~memory ~time:6 [ 0; 1 ]) with
  | Adversary.Schedule _ -> ()
  | d -> Alcotest.failf "dropped crash came back: %s" (decision_to_string d))

let test_with_crash_recovery_schedule () =
  let memory = Memory.create ~namespace:4 () in
  let a =
    Adversary.with_crash_recovery ~base:(Adversary.round_robin ()) ~crashes:[ (0, 1) ]
      ~recover_after:3
  in
  check decision "crash fires" (Adversary.Crash 1)
    (a.Adversary.decide (view ~memory ~time:0 [ 0; 1; 2 ]));
  (* Recovery is due at time 3, not before. *)
  check decision "too early to recover" (Adversary.Schedule 0)
    (a.Adversary.decide (view ~memory ~time:2 ~crashed:[ 1 ] [ 0; 2 ]));
  check decision "recovery fires" (Adversary.Recover 1)
    (a.Adversary.decide (view ~memory ~time:3 ~crashed:[ 1 ] [ 0; 2 ]));
  Alcotest.check_raises "recover_after must be positive"
    (Invalid_argument "Adversary.with_crash_recovery: recover_after must be >= 1") (fun () ->
      ignore
        (Adversary.with_crash_recovery ~base:(Adversary.round_robin ()) ~crashes:[]
           ~recover_after:0))

(* --- the executor's view queries against the reference scans --- *)

(* Windows below, at and above the runnable counts of the runs below. *)
let windows = [ 1; 2; 7; 64; Adversary.adaptive_scan_window; max_int ]

type diff = {
  mutable ticks : int;  (** decisions checked *)
  mutable doomed_hits : int;  (** checks where the reference found a doomed pid *)
  mutable undooms : int;  (** releases scheduled while another pid waits on the register *)
  mutable mismatches : string list;
}

let new_diff () = { ticks = 0; doomed_hits = 0; undooms = 0; mismatches = [] }

(* Wraps [base] so that, from tick [from] on, every decision first
   compares the view's [first_doomed] (at every window) and
   [min_runnable] with the reference scans, then decides as [base]
   does.  With [from > 0] and a base that never queries, the tracker is
   built mid-run from a memory that is already partly set. *)
let checked ?(from = 0) d (base : Adversary.t) =
  {
    base with
    Adversary.decide =
      (fun view ->
        if view.Adversary.time >= from then begin
          d.ticks <- d.ticks + 1;
          List.iter
            (fun w ->
              let want = Adversary.scan_first_doomed view w in
              let got = view.Adversary.first_doomed w in
              if want >= 0 then d.doomed_hits <- d.doomed_hits + 1;
              if got <> want then
                d.mismatches <-
                  Printf.sprintf "t=%d first_doomed %d: %d, scan %d" view.time w got want
                  :: d.mismatches)
            windows;
          let want = Adversary.scan_min_runnable view and got = view.Adversary.min_runnable () in
          if got <> want then
            d.mismatches <-
              Printf.sprintf "t=%d min_runnable: %d, scan %d" view.time got want :: d.mismatches
        end;
        let decision = base.Adversary.decide view in
        (match decision with
        | Adversary.Schedule pid -> (
          match view.Adversary.pending_op pid with
          | Op.Release_name r ->
            for i = 0 to view.Adversary.runnable_count - 1 do
              if view.Adversary.pending_op (view.Adversary.runnable_nth i) = Op.Tas_name r then
                d.undooms <- d.undooms + 1
            done
          | _ -> ())
        | Adversary.Crash _ | Adversary.Recover _ -> ());
        decision);
  }

let check_diff label d =
  check (Alcotest.list Alcotest.string) (label ^ ": no mismatch") [] (List.rev d.mismatches);
  check Alcotest.bool (label ^ ": ticks checked") true (d.ticks > 0);
  check Alcotest.bool (label ^ ": doomed pids seen") true (d.doomed_hits > 0)

let tight_instance ~n ~seed =
  Tight.instance
    ~params:(Params.make ~policy:Params.Mass_conserving ~n ())
    ~stream:(Stream.create seed) ()

let combined_instance ~n ~seed =
  Combined.instance
    { Combined.n; variant = Combined.Geometric { ell = 2 } }
    ~stream:(Stream.create seed)

let longlived_instance ~seed =
  Longlived.instance
    (Longlived.make_config ~epsilon:0.25 ~rounds:6 ~sessions:24 ())
    ~stream:(Stream.create seed)

let bases seed =
  [
    ("adaptive", 0, Adversary.adaptive_contention);
    ("colluding", 0, Adversary.colluding);
    ("round-robin-late", 40, Adversary.round_robin ());
    ("uniform-late", 25, Adversary.uniform (Xoshiro.create seed));
  ]

let run_checked ?inject ?(max_ticks = 1_000_000) label ~from base inst =
  let d = new_diff () in
  let r = Executor.run ?inject ~max_ticks ~adversary:(checked ~from d base) inst in
  check_diff label d;
  check Alcotest.bool (label ^ ": sound") true (Report.is_sound r);
  d

let test_tracker_matches_scan_one_shot () =
  List.iter
    (fun seed ->
      List.iter
        (fun (name, from, base) ->
          let lbl s = Printf.sprintf "%s %s seed %Ld" s name seed in
          ignore (run_checked (lbl "tight") ~from base (tight_instance ~n:64 ~seed));
          ignore (run_checked (lbl "combined") ~from base (combined_instance ~n:128 ~seed)))
        (bases seed))
    [ 1L; 2L; 3L ]

let test_tracker_matches_scan_releases () =
  (* Long-lived sessions release their names: a release must un-doom the
     waiters of that register. *)
  let undooms = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun (name, from, base) ->
          let d =
            run_checked (Printf.sprintf "longlived %s seed %Ld" name seed) ~from base
              (longlived_instance ~seed)
          in
          undooms := !undooms + d.undooms)
        (bases seed))
    [ 1L; 2L; 3L ];
  check Alcotest.bool "some release freed a register another pid was doomed on" true (!undooms > 0)

let test_tracker_matches_scan_aux () =
  (* The sorting-network adapter contends on auxiliary TAS bits. *)
  let module Adapter = Renaming_sortnet.Renaming_adapter in
  let adapter = Adapter.prepare (Renaming_sortnet.Bitonic.network ~width:16) in
  List.iter
    (fun (name, from, base) ->
      ignore
        (run_checked ("sortnet " ^ name) ~from base
           (Adapter.instance adapter ~entries:(Array.init 16 Fun.id))))
    (bases 4L)

let test_tracker_matches_scan_crashes () =
  List.iter
    (fun seed ->
      let crashes = List.init 12 (fun i -> ((7 * i) + 3, (11 * i) mod 128)) in
      let adversaries =
        [
          ( "crash-recovery",
            Adversary.with_crash_recovery ~base:Adversary.adaptive_contention ~crashes
              ~recover_after:9 );
          ( "crash-random",
            Adversary.crash_random ~fraction:0.02 ~rng:(Xoshiro.create seed)
              ~base:Adversary.adaptive_contention );
          ( "crash-recovery-late",
            Adversary.with_crash_recovery ~base:(Adversary.round_robin ()) ~crashes
              ~recover_after:5 );
        ]
      in
      List.iter
        (fun (name, base) ->
          let from = if name = "crash-recovery-late" then 30 else 0 in
          let lbl s = Printf.sprintf "%s %s seed %Ld" s name seed in
          ignore (run_checked (lbl "combined") ~from base (combined_instance ~n:128 ~seed));
          ignore (run_checked (lbl "tight") ~from base (tight_instance ~n:64 ~seed));
          ignore (run_checked (lbl "longlived") ~from base (longlived_instance ~seed)))
        adversaries)
    [ 1L; 2L ]

let test_tracker_matches_scan_faults () =
  (* Faulted TAS operations change no register but still move the pid to
     its retry (a yield), and back. *)
  let inject ~time ~pid:_ ~op =
    match op with Op.Tas_name _ | Op.Tas_aux _ -> time mod 5 = 2 | _ -> false
  in
  List.iter
    (fun (name, from, base) ->
      ignore
        (run_checked ~inject ("combined faults " ^ name) ~from base
           (combined_instance ~n:128 ~seed:9L));
      ignore
        (run_checked ~inject ("tight faults " ^ name) ~from base (tight_instance ~n:64 ~seed:9L)))
    (bases 9L)

let test_tracker_is_lazy () =
  let builds adversary =
    let built = ref 0 in
    ignore
      (Executor.run
         ~on_track:(fun () -> incr built)
         ~adversary (combined_instance ~n:128 ~seed:5L));
    !built
  in
  check Alcotest.int "round-robin never builds the tracker" 0 (builds (Adversary.round_robin ()));
  check Alcotest.int "lifo never builds the tracker" 0 (builds Adversary.lifo);
  check Alcotest.int "adaptive builds it once" 1 (builds Adversary.adaptive_contention)

(* The reference rule of [adaptive_contention] on an explicit pid list
   (in runnable order). *)
let reference_adaptive (view : Adversary.view) pids =
  let wasted pid =
    match view.Adversary.pending_op pid with
    | Op.Tas_name i -> Tas_array.is_set (Memory.names view.Adversary.memory) i
    | Op.Tas_aux i -> Tas_array.is_set (Memory.aux view.Adversary.memory) i
    | _ -> false
  in
  let window = List.filteri (fun i _ -> i < Adversary.adaptive_scan_window) pids in
  match List.find_opt wasted window with
  | Some pid -> pid
  | None -> List.fold_left Int.min max_int pids

let test_arrival_subview_uses_subset () =
  (* [Arrival] shows its base adversary only the arrived processes; the
     executor's whole-set answers must not leak into that view. *)
  let n = 128 in
  let pattern = Arrival.Staggered { gap = 3 } in
  let arrivals = Arrival.times pattern ~n in
  let outer = Arrival.adversary pattern ~n ~base:Adversary.adaptive_contention in
  let checked_ticks = ref 0 and leaks_possible = ref 0 and mismatches = ref [] in
  let decide (view : Adversary.view) =
    let pids = List.init view.Adversary.runnable_count view.Adversary.runnable_nth in
    let arrived = List.filter (fun pid -> arrivals.(pid) <= view.Adversary.time) pids in
    let d = outer.Adversary.decide view in
    if arrived <> [] then begin
      incr checked_ticks;
      let want = reference_adaptive view arrived in
      if reference_adaptive view pids <> want then incr leaks_possible;
      if d <> Adversary.Schedule want then
        mismatches :=
          Printf.sprintf "t=%d: %s, reference schedule %d" view.Adversary.time
            (decision_to_string d) want
          :: !mismatches
    end;
    d
  in
  List.iter
    (fun seed ->
      let r =
        Executor.run ~adversary:{ outer with Adversary.decide } (combined_instance ~n ~seed)
      in
      check Alcotest.bool "sound" true (Report.is_sound r))
    [ 1L; 2L; 3L ];
  check (Alcotest.list Alcotest.string) "arrival picks the reference rule on the subset" []
    (List.rev !mismatches);
  check Alcotest.bool "ticks checked" true (!checked_ticks > 0);
  check Alcotest.bool "whole-set answers differ from the subset's at some tick" true
    (!leaks_possible > 0)

let tests =
  [
    ( "sched.adversary",
      [
        Alcotest.test_case "round-robin is fair and cyclic" `Quick test_round_robin_fair;
        Alcotest.test_case "round-robin cursor is per-instance" `Quick test_round_robin_fresh_cursor;
        Alcotest.test_case "adaptive contention wastes doomed TAS" `Quick
          test_adaptive_contention_prefers_doomed_tas;
        Alcotest.test_case "colluding targets shared registers" `Quick
          test_colluding_groups_shared_target;
        Alcotest.test_case "crash injection respects the budget" `Quick
          test_with_crashes_respects_budget;
        Alcotest.test_case "never crashes the last runnable" `Quick
          test_with_crashes_never_kills_last_runnable;
        Alcotest.test_case "crash-recovery timing" `Quick test_with_crash_recovery_schedule;
        Alcotest.test_case "tracker = scan: tight, combined" `Quick
          test_tracker_matches_scan_one_shot;
        Alcotest.test_case "tracker = scan: long-lived releases" `Quick
          test_tracker_matches_scan_releases;
        Alcotest.test_case "tracker = scan: aux TAS bits" `Quick test_tracker_matches_scan_aux;
        Alcotest.test_case "tracker = scan: crashes and recoveries" `Quick
          test_tracker_matches_scan_crashes;
        Alcotest.test_case "tracker = scan: injected TAS faults" `Quick
          test_tracker_matches_scan_faults;
        Alcotest.test_case "tracker is built only when queried" `Quick test_tracker_is_lazy;
        Alcotest.test_case "arrival sub-view answers for the arrived subset" `Quick
          test_arrival_subview_uses_subset;
      ] );
  ]

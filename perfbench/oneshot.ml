(* oneshot-adaptive: the paper's own system.  Each episode is one tight
   instance (mass-conserving, so the τ-register device does the work)
   and one Corollary 7 instance, both under the adaptive contention
   adversary.  Only sched, core and device run; every service layer is
   idle, so a service-layer change must leave this workload unchanged. *)

module Params = Renaming_core.Params
module Tight = Renaming_core.Tight
module Combined = Renaming_core.Combined
module Adversary = Renaming_sched.Adversary
module Executor = Renaming_sched.Executor
module Report = Renaming_sched.Report
module Stream = Renaming_rng.Stream

type sizes = { tight_n : int; combined_n : int; det_episodes : int }

let full = { tight_n = 256; combined_n = 2048; det_episodes = 24 }
let tiny = { tight_n = 32; combined_n = 64; det_episodes = 2 }

let adversary = Adversary.adaptive_contention

let params sz = Params.make ~policy:Params.Mass_conserving ~n:sz.tight_n ()
let combined_cfg sz = { Combined.n = sz.combined_n; variant = Combined.Geometric { ell = 2 } }

(* The correctness gate of one report. *)
let check label (r : Report.t) acc =
  let acc = if Report.is_sound r then acc else (label ^ ":unsound") :: acc in
  let acc = if Report.is_livelock r then (label ^ ":livelock") :: acc else acc in
  if Report.surviving_unnamed r = [] then acc else (label ^ ":unnamed") :: acc

type state = {
  sz : sizes;
  mutable steps_max : int;
  mutable tight_s : float;
  mutable tight_names : int;
  mutable combined_s : float;
  mutable combined_names : int;
}

let create sz =
  { sz; steps_max = 0; tight_s = 0.; tight_names = 0; combined_s = 0.; combined_names = 0 }

(* Set-up: build the instances of eight episodes (what [Tight.run] and
   [Combined.run] do before their first step).  One episode's build is
   about 2 ms, too short to time steadily on its own. *)
let setup sz ~seed =
  for i = 1 to 8 do
    let s = Meter.episode_seed ~seed ~episode:(-i) ~lane:0 in
    ignore (Tight.instance ~params:(params sz) ~stream:(Stream.create s) ());
    ignore (Combined.instance (combined_cfg sz) ~stream:(Stream.create s))
  done

let episode st ~seed ~index =
  let sz = st.sz in
  let p = params sz in
  let cfg = combined_cfg sz in
  Meter.measure (fun () ->
      let t0 = Meter.now_s () in
      let rt =
        Tight.run ~adversary ~params:p ~seed:(Meter.episode_seed ~seed ~episode:index ~lane:0) ()
      in
      let t1 = Meter.now_s () in
      let rc = Combined.run ~adversary cfg ~seed:(Meter.episode_seed ~seed ~episode:index ~lane:1) in
      let t2 = Meter.now_s () in
      st.tight_s <- st.tight_s +. (t1 -. t0);
      st.combined_s <- st.combined_s +. (t2 -. t1);
      st.tight_names <- st.tight_names + Report.named_count rt;
      st.combined_names <- st.combined_names + Report.named_count rc;
      if index < sz.det_episodes then
        st.steps_max <- max st.steps_max (max (Report.max_steps rt) (Report.max_steps rc));
      let named = Report.named_count rt + Report.named_count rc in
      let attempted = sz.tight_n + sz.combined_n in
      (named, attempted, attempted - named, check "tight" rt (check "combined" rc [])))

let extras st = [ Meter.m "steps_max" "steps" (float_of_int st.steps_max) ]

(* ---- traced ledger ---- *)

let span_names = [ "core.build"; "sched.run"; "sched.decide" ]

(* The same episodes with spans around instance construction, the
   executor and every adversary decision.  [Tight.run]/[Combined.run]
   are exactly [instance] followed by [Executor.run]; calling the two
   halves lets the build be timed on its own. *)
let traced sz ~seed ~episodes =
  let tr = Span.create span_names in
  let sp_build = Span.id tr "core.build"
  and sp_run = Span.id tr "sched.run"
  and sp_decide = Span.id tr "sched.decide" in
  let p = params sz in
  let cfg = combined_cfg sz in
  let instr = Tight.create_instrumentation p in
  let ticks = ref 0 and names = ref 0 and tight_names = ref 0 and run_words = ref 0. in
  let builds = ref [] in
  let run_one ~rid ~build =
    let b0 = Span.now_ns () in
    let slot = Span.enter tr ~id:sp_build ~start:b0 ~parent:(-1) ~rid in
    let inst = build () in
    Span.leave tr ~id:sp_build ~slot ~start:b0;
    let build_ns = Span.now_ns () - b0 in
    let r0 = Span.now_ns () in
    let run_slot = Span.enter tr ~id:sp_run ~start:r0 ~parent:(-1) ~rid in
    let decide view =
      let d0 = Span.now_ns () in
      let s = Span.enter tr ~id:sp_decide ~start:d0 ~parent:run_slot ~rid in
      let d = adversary.Adversary.decide view in
      Span.leave tr ~id:sp_decide ~slot:s ~start:d0;
      d
    in
    let w0 = Meter.alloc_words () in
    let r = Executor.run ~adversary:{ adversary with Adversary.decide } inst in
    run_words := !run_words +. (Meter.alloc_words () -. w0);
    Span.leave tr ~id:sp_run ~slot:run_slot ~start:r0;
    ticks := !ticks + r.Report.ticks;
    names := !names + Report.named_count r;
    (r, build_ns)
  in
  let violations = ref [] in
  let t0 = Span.now_ns () in
  for index = 0 to episodes - 1 do
    let st = Meter.episode_seed ~seed ~episode:index ~lane:0 in
    let sc = Meter.episode_seed ~seed ~episode:index ~lane:1 in
    let rt, bt =
      run_one ~rid:(2 * index) ~build:(fun () ->
          Tight.instance ~instr ~params:p ~stream:(Stream.create st) ())
    in
    let rc, bc =
      run_one ~rid:((2 * index) + 1) ~build:(fun () -> Combined.instance cfg ~stream:(Stream.create sc))
    in
    tight_names := !tight_names + Report.named_count rt;
    builds := float_of_int (bt + bc) /. 1e9 :: !builds;
    violations := check "tight" rt (check "combined" rc !violations)
  done;
  let wall_ns = Span.now_ns () - t0 in
  let sum = Array.fold_left ( + ) 0 in
  let requests = sum instr.Tight.requests_per_tau in
  let wins = sum instr.Tight.wins_per_round and losses = sum instr.Tight.losses_per_round in
  let run_ns = Span.total_ns tr sp_run and decide_ns = Span.total_ns tr sp_decide in
  let fl = float_of_int in
  ( tr,
    !violations,
    wall_ns,
    [
      Meter.m "sched.ns_per_step" "ns" (fl (run_ns - decide_ns) /. fl !ticks);
      Meter.m "sched.words_per_step" "words" (!run_words /. fl !ticks);
      Meter.m "sched.steps_per_name" "steps" (Meter.ratio !ticks !names);
      Meter.m "sched.adversary_ns_per_decision" "ns" (Meter.ratio decide_ns (Span.count tr sp_decide));
      Meter.m "sched.adversary_share" "ratio" (Meter.ratio decide_ns run_ns);
      Meter.m "core.instance_build_s" "s" (Meter.median !builds);
      Meter.m "device.requests_per_name" "count" (Meter.ratio requests !tight_names);
      Meter.m "device.win_ratio" "ratio" (Meter.ratio wins (wins + losses));
    ] )

let core_rates st =
  [
    Meter.m "core.tight.names_per_s" "1/s" (float_of_int st.tight_names /. st.tight_s);
    Meter.m "core.combined.names_per_s" "1/s" (float_of_int st.combined_names /. st.combined_s);
  ]

(* The repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --selftest

   --trace 0 measures one workload end to end with tracing off: seeded
   episodes for S seconds, with set-up timed 11 times along the way.
   The first [det_episodes] episodes always run and give the
   deterministic figures; throughput is taken over all episodes.
   --trace 1 runs the per-layer ledger, the same for every workload:
   each workload's first [det_episodes] episodes once untraced and once
   with spans around each call into a layer, plus the bare-lease
   replay, the standalone transport and dedup loops and the net-path
   ladder.  Spans go to .perfbench_out/ at exit.

   The last stdout line is the result object; earlier lines carry the
   run metadata and the workload-specific end-to-end figures.  A failed
   correctness gate makes the run exit 1. *)

type workload = {
  name : string;
  tag : string;  (* prefix of this workload's entries in the ledger *)
  det_episodes : int;
  setup : seed:int64 -> unit;
  episode : seed:int64 -> index:int -> Meter.episode;
  extras : unit -> Meter.metric list;
}

type scale = Full | Tiny

let oneshot scale =
  let sz = match scale with Full -> Oneshot.full | Tiny -> Oneshot.tiny in
  let st = Oneshot.create sz in
  ( {
      name = "oneshot-adaptive";
      tag = "oneshot_adaptive";
      det_episodes = sz.Oneshot.det_episodes;
      setup = Oneshot.setup sz;
      episode = Oneshot.episode st;
      extras = (fun () -> Oneshot.extras st);
    },
    sz,
    st )

let lease scale =
  let sz = match scale with Full -> Lease_load.full | Tiny -> Lease_load.tiny in
  let st = Lease_load.create sz in
  ( {
      name = "lease-saturated";
      tag = "lease_saturated";
      det_episodes = sz.Lease_load.det_episodes;
      setup = Lease_load.setup sz;
      episode = Lease_load.episode st;
      extras = (fun () -> Lease_load.extras st);
    },
    sz )

let net scale =
  let sz = match scale with Full -> Net.full | Tiny -> Net.tiny in
  ( {
      name = "net-faulty";
      tag = "net_faulty";
      det_episodes = sz.Net.det_episodes;
      setup = Net.setup sz;
      episode = Net.episode sz;
      extras = (fun () -> []);
    },
    sz )

let workload_names = [ "oneshot-adaptive"; "lease-saturated"; "net-faulty" ]

let workload scale = function
  | "oneshot-adaptive" ->
    let w, _, _ = oneshot scale in
    w
  | "lease-saturated" -> fst (lease scale)
  | "net-faulty" -> fst (net scale)
  | other -> invalid_arg ("unknown workload " ^ other)

(* ---------- output ---------- *)

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun m ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Meter.m_name (json_float m.Meter.m_value)
           m.Meter.m_unit)
       ms)

let json_strings l = String.concat ", " (List.map (Printf.sprintf "%S") l)

(* Print the result object as the last line; exit 1 unless every gate
   passed and every metric is a number. *)
let finish ~attempted ~failed ~violations ms =
  let correct = violations = [] && List.for_all (fun m -> Float.is_finite m.Meter.m_value) ms in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics ms);
  if not correct then exit 1

let print_meta ~workload ~seed ~seconds ~trace =
  let env k = Option.value (Sys.getenv_opt k) ~default:"" in
  Printf.printf
    "{\"meta\": {\"workload\": %S, \"seed\": %Ld, \"seconds\": %d, \"trace\": %d, \"nproc\": %d, \
     \"ocaml\": %S, \"ocamlrunparam\": %S, \"commit\": %S, \"sizes\": {\"oneshot-adaptive\": \
     {\"tight_n\": %d, \"combined_n\": %d, \"det_episodes\": %d}, \"lease-saturated\": \
     {\"capacity\": %d, \"clients\": %d, \"sessions\": %d, \"det_episodes\": %d}, \"net-faulty\": \
     {\"clients\": %d, \"sessions\": %d, \"det_episodes\": %d}}}}\n"
    workload seed seconds trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (env "OCAMLRUNPARAM")
    (match env "PERFBENCH_COMMIT" with "" -> "unknown" | c -> c)
    Oneshot.full.Oneshot.tight_n Oneshot.full.Oneshot.combined_n Oneshot.full.Oneshot.det_episodes
    Lease_load.full.Lease_load.capacity Lease_load.full.Lease_load.clients
    Lease_load.full.Lease_load.sessions Lease_load.full.Lease_load.det_episodes Net.clients
    Net.full.Net.sessions Net.full.Net.det_episodes

(* ---------- end-to-end run (tracing off) ---------- *)

(* Set-up is timed [setup_reps] times: once before the first episode,
   the rest spread evenly over the measuring window so that they sample
   the same machine states as the episodes. *)
let setup_reps = 11

let totals episodes =
  let sum f = List.fold_left (fun a e -> a + f e) 0 episodes in
  let violations = List.concat_map (fun e -> e.Meter.violations) episodes in
  (sum (fun e -> e.Meter.attempted), sum (fun e -> e.Meter.failed) + List.length violations, violations)

type e2e = {
  episodes : Meter.episode list;
  metrics : Meter.metric list;
  extras : Meter.metric list;
}

let run_e2e w ~seed ~seconds =
  (* Each set-up and episode is timed in reference seconds (see
     [Meter.yardstick]); the raw wall-clock figures go on the figures
     line. *)
  let setups = ref [] and wall_setups = ref [] in
  let time_setup () =
    let (), wall, ref_s = Meter.reference_time (fun () -> w.setup ~seed) in
    setups := ref_s :: !setups;
    wall_setups := wall :: !wall_setups
  in
  time_setup ();
  let t_start = Meter.now_s () in
  let measured = ref 0. and wall = ref 0. in
  let rec loop index acc =
    let elapsed = Meter.now_s () -. t_start in
    if index >= w.det_episodes && elapsed >= seconds then List.rev acc
    else begin
      let due = float_of_int (List.length !setups) *. seconds /. float_of_int setup_reps in
      if List.length !setups < setup_reps && elapsed >= due then time_setup ();
      let e, outer, ref_s = Meter.reference_time (fun () -> w.episode ~seed ~index) in
      measured := !measured +. (e.Meter.wall_s *. ref_s /. outer);
      wall := !wall +. e.Meter.wall_s;
      loop (index + 1) (e :: acc)
    end
  in
  let episodes = loop 0 [] in
  while List.length !setups < setup_reps do
    time_setup ()
  done;
  let det = List.filteri (fun i _ -> i < w.det_episodes) episodes in
  let det_attempted, det_failed, _ = totals det in
  let sum f l = List.fold_left (fun acc e -> acc + f e) 0 l in
  let sumf f l = List.fold_left (fun acc e -> acc +. f e) 0. l in
  let ops = float_of_int (sum (fun e -> e.Meter.ops) episodes) in
  {
    episodes;
    metrics =
      [
        Meter.m "setup_s" "s" (Meter.median !setups);
        Meter.m "ops_per_s" "1/s" (ops /. !measured);
        Meter.m "alloc_words_per_op" "words"
          (sumf (fun e -> e.Meter.words) det /. float_of_int (sum (fun e -> e.Meter.ops) det));
        Meter.m "peak_heap_mb" "MB" (Meter.peak_heap_mb ());
      ];
    extras =
      [
        Meter.m "wall_setup_s" "s" (Meter.median !wall_setups);
        Meter.m "wall_ops_per_s" "1/s" (ops /. !wall);
        Meter.m "failed_ratio" "ratio" (Meter.ratio det_failed det_attempted);
      ]
      @ w.extras ();
  }

(* ---------- traced ledger ---------- *)

let out_dir = ".perfbench_out"

(* One workload's ledger pass: the same episodes untraced (wall time,
   GC) then traced ([traced] returns spans, gate failures, traced wall
   nanoseconds and its per-layer metrics). *)
let pass w ~seed ~traced ~write_spans =
  let episodes = w.det_episodes in
  let (minor0, major0) = Meter.collections () in
  let untraced = List.init episodes (fun index -> w.episode ~seed ~index) in
  let (minor1, major1) = Meter.collections () in
  let tr, violations, traced_ns, layer = traced ~seed ~episodes in
  if write_spans then begin
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    Span.write tr ~path:(Filename.concat out_dir (Printf.sprintf "spans-%s.json" w.name))
  end;
  let ops = List.fold_left (fun a e -> a + e.Meter.ops) 0 untraced in
  let wall = List.fold_left (fun a e -> a +. e.Meter.wall_s) 0. untraced in
  let kops = float_of_int ops /. 1000. in
  let attempted, failed, gate = totals untraced in
  ( attempted,
    failed + List.length violations,
    gate @ violations,
    layer
    @ [
        Meter.m (Printf.sprintf "gc.%s.minor_per_kop" w.tag) "count" (float_of_int (minor1 - minor0) /. kops);
        Meter.m (Printf.sprintf "gc.%s.major_per_kop" w.tag) "count" (float_of_int (major1 - major0) /. kops);
        Meter.m ("trace.overhead." ^ w.name) "ratio" (float_of_int traced_ns /. 1e9 /. wall);
        Meter.m (w.tag ^ ".failed_ratio") "ratio" (Meter.ratio failed attempted);
      ] )

let run_ledger scale ~seed ~write_spans =
  let ow, osz, ost = oneshot scale in
  let lw, lsz = lease scale in
  let nw, nsz = net scale in
  (* Warm up every workload before anything is timed. *)
  List.iter (fun w -> w.setup ~seed) [ ow; lw; nw ];
  let results =
    [
      pass ow ~seed ~write_spans ~traced:(Oneshot.traced osz);
      pass lw ~seed ~write_spans ~traced:(Lease_load.traced lsz);
      pass nw ~seed ~write_spans ~traced:(Net.traced nsz);
    ]
  in
  let ladder_violations, ladder = Net.ladder nsz ~seed in
  let extra =
    Oneshot.core_rates ost
    @ List.map (fun m -> { m with Meter.m_name = "oneshot_adaptive." ^ m.Meter.m_name }) (ow.extras ())
    @ ladder
  in
  let attempted = List.fold_left (fun a (x, _, _, _) -> a + x) 0 results in
  let failed = List.fold_left (fun a (_, x, _, _) -> a + x) 0 results + List.length ladder_violations in
  let violations = List.concat_map (fun (_, _, v, _) -> v) results @ ladder_violations in
  (attempted, failed, violations, List.concat_map (fun (_, _, _, m) -> m) results @ extra)

(* ---------- self-test ---------- *)

(* At tiny sizes, the deterministic figures must repeat exactly for a
   seed and move when the seed changes. *)
let deterministic_names =
  [ "alloc_words_per_op"; "steps_max"; "acquire_sim_p50"; "acquire_sim_p999";
    "net.events_per_session"; "transport.msgs_per_session"; "refine.lease.events_per_session";
    "refine.net.events_per_session" ]

let deterministic ~seed =
  let per_workload =
    List.map
      (fun name ->
        let w = workload Tiny name in
        w.setup ~seed;
        let r = run_e2e w ~seed ~seconds:0. in
        List.filter (fun m -> List.mem m.Meter.m_name deterministic_names) (r.metrics @ r.extras))
      workload_names
  in
  let _, _, _, ledger = run_ledger Tiny ~seed ~write_spans:false in
  per_workload @ [ List.filter (fun m -> List.mem m.Meter.m_name deterministic_names) ledger ]

let selftest () =
  let values ms = List.map (fun m -> (m.Meter.m_name, m.Meter.m_value)) ms in
  let a1 = List.map values (deterministic ~seed:11L) in
  let a2 = List.map values (deterministic ~seed:11L) in
  let b = List.map values (deterministic ~seed:12L) in
  let ok = ref true in
  List.iteri
    (fun i (x, y) ->
      if x <> y then begin
        ok := false;
        Printf.printf "selftest: group %d differs between two runs of one seed\n" i;
        List.iter2 (fun (k, v) (_, v') -> if v <> v' then Printf.printf "  %s: %.17g vs %.17g\n" k v v') x y
      end)
    (List.combine a1 a2);
  List.iteri
    (fun i (x, y) ->
      if x = y then begin
        ok := false;
        Printf.printf "selftest: group %d did not change with the seed\n" i
      end)
    (List.combine a1 b);
  if not !ok then begin
    List.iter
      (fun group -> List.iter (fun (k, v) -> Printf.printf "selftest: %s = %.17g\n" k v) group)
      a1;
    exit 1
  end

(* ---------- seed facts (README.md) ---------- *)

(* One measurement per process, so that the peak heap is this run's. *)
let fact name ~size ~refine ~seed =
  match name with
  | "net-heap" ->
    let sz = { Net.sessions = size; det_episodes = 1 } in
    let t0 = Meter.now_s () in
    let sessions =
      if refine then (fst (Net.run_episode sz ~seed)).Renaming_service.Net_churn.sessions
      else (Renaming_service.Net_churn.run (Net.config sz) ~seed).Renaming_service.Net_churn.sessions
    in
    Printf.printf "net-faulty sessions=%d refine=%b peak_heap_mb=%.2f sessions_per_s=%.0f\n" sessions
      refine (Meter.peak_heap_mb ())
      (float_of_int sessions /. (Meter.now_s () -. t0))
  | "tight" ->
    let sz = { Oneshot.full with Oneshot.tight_n = size } in
    let params = Oneshot.params sz in
    let t0 = Meter.now_s () in
    let r = Renaming_core.Tight.run ~adversary:Oneshot.adversary ~params ~seed () in
    let dt = Meter.now_s () -. t0 in
    let named = Renaming_sched.Report.named_count r in
    Printf.printf "tight n=%d adversary=adaptive names_per_s=%.0f steps=%d steps_max=%d\n" size
      (float_of_int named /. dt) r.Renaming_sched.Report.ticks
      (Renaming_sched.Report.max_steps r)
  | other -> invalid_arg ("unknown fact " ^ other)

(* ---------- command line ---------- *)

let usage =
  "perfbench --workload NAME --seed N --seconds S --trace 0|1  |  perfbench --selftest  |  \
   perfbench --fact net-heap|tight --size N [--refine 1] [--seed N]"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | "--selftest" :: rest -> parse (("selftest", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ ->
      prerr_endline usage;
      exit 2
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  if get "selftest" <> None then selftest ()
  else if get "fact" <> None then
    fact (Option.get (get "fact"))
      ~size:(int_of_string (Option.value (get "size") ~default:"16000"))
      ~refine:(get "refine" = Some "1")
      ~seed:(Int64.of_string (Option.value (get "seed") ~default:"1"))
  else
    match (get "workload", get "seed", get "seconds", get "trace") with
    | Some wname, Some seed, Some seconds, Some (("0" | "1") as trace)
      when List.mem wname workload_names ->
      let seed = Int64.of_string seed and seconds = int_of_string seconds in
      print_meta ~workload:wname ~seed ~seconds ~trace:(int_of_string trace);
      if trace = "0" then begin
        let r = run_e2e (workload Full wname) ~seed ~seconds:(float_of_int seconds) in
        let attempted, failed, violations = totals r.episodes in
        Printf.printf "{\"workload_figures\": {%s}, \"episodes\": %d, \"violations\": [%s]}\n"
          (json_metrics r.extras) (List.length r.episodes) (json_strings violations);
        finish ~attempted ~failed ~violations r.metrics
      end
      else begin
        let attempted, failed, violations, ms = run_ledger Full ~seed ~write_spans:true in
        Printf.printf "{\"violations\": [%s]}\n" (json_strings violations);
        finish ~attempted ~failed ~violations ms
      end
    | _ ->
      prerr_endline usage;
      exit 2

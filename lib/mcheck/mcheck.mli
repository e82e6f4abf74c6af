(** Bounded model checking of renaming instances: systematic
    exploration of every adversary decision — who steps next,
    transient-fault injections, crashes, recoveries — with the online
    safety {!Renaming_faults.Monitor} checking every interleaving.

    The exploration is *stateless* in the CHESS style: a schedule is a
    {!Renaming_sched.Directed.choice} prefix, re-executed from scratch
    on a fresh deterministic instance.  Two engines share that
    substrate:

    - {b [`Dpor]} (default): source-DPOR with wakeup trees.  After each
      completed execution, *reversible races* — pairs of dependent
      steps of different processes with no happens-before path between
      them, computed with vector clocks over the
      {!Renaming_analysis.Footprint} dependence relation
      ({!Races.dependent}) — each yield a reordering witness, inserted
      into the wakeup tree ({!Wakeup}) of the race's first decision
      point unless a sleep-set entry, an existing branch or the
      preemption budget already covers it.  Alternatives at a point are
      exactly those committed branches (plus exhaustively enumerated
      injections), so redundant interleavings of independent steps are
      never scheduled at all and no explored schedule is revisited.
      Injections are treated as dependence barriers: races are never
      detected across them.  The default tail runs under the
      [b_yield_rotate] fairness bound so retry/backoff loops in the
      handoff services terminate instead of burning the livelock guard.

    - {b [`Legacy_dfs]}: the previous sleep-set DFS, kept byte-identical
      as an escape hatch ([renaming mcheck --legacy-dfs]) for
      differential runs; it enumerates every enabled alternative at
      every point, pruned by sleep sets and preemption bounding.

    Both engines bound preemptions with the same cost model (switching
    away from a still-runnable process costs one unit of
    [b_preemptions]), so they explore the same bounded schedule
    universe.  Independence is judged statically from the audited
    {!Renaming_analysis.Footprint} table, machine-checked against the
    concrete semantics of [Memory.apply] by [renaming analyze]
    ({!Renaming_analysis.Commute}), including agreement with
    {!Races.dependent}.  Under a *finite* preemption bound, both engines
    are heuristic: a race whose reversal needs more preemptions than
    remain is skipped (counted in [s_budget_skipped]), mirroring the
    legacy engine's budget gating.  With generous bounds both are
    exhaustive up to Mazurkiewicz-trace equivalence, which is sound for
    the monitor's trace-invariant verdicts.

    Each violation is recorded with its condensed rendering
    ({!Renaming_sched.Directed.condensed}) and (by default) handed to
    {!Renaming_faults.Shrink} for 1-minimal counterexample reduction. *)

type target = {
  t_name : string;  (** passed to the spec factory, which picks its adapter mode by name *)
  t_build : unit -> Renaming_sched.Executor.instance;
      (** fresh deterministic instance per call (exploration re-executes
          constantly) *)
}

type engine = [ `Dpor | `Legacy_dfs ]

val engine_name : engine -> string
(** ["dpor"] / ["legacy-dfs"] — the [s_engine] stats field. *)

type bounds = {
  b_preemptions : int;  (** preemption budget per schedule *)
  b_crashes : int;  (** crash injections per schedule *)
  b_recoveries : int;  (** recovery injections per schedule *)
  b_faults : int;  (** transient-fault injections per schedule *)
  b_max_ticks : int;  (** livelock guard per execution *)
  b_max_schedules : int;  (** hard cap on executions; sets [s_capped] *)
  b_sleep : bool;  (** sleep-set pruning — legacy engine only (DPOR
                       requires sleep sets for its no-revisit guarantee
                       and always keeps them) *)
  b_yield_rotate : int option;
      (** fairness bound of the default tail — DPOR engine only (the
          legacy engine's tail must stay byte-identical); see
          {!Renaming_sched.Directed.run} *)
}

val default_bounds : bounds
(** [{ b_preemptions = 2; b_crashes = 0; b_recoveries = 0; b_faults = 0;
      b_max_ticks = 50_000; b_max_schedules = 200_000; b_sleep = true;
      b_yield_rotate = Some 32 }] *)

type case = {
  v_kind : string;  (** {!Renaming_faults.Monitor.verdict} failure kind: a violation kind or ["exception:..."] *)
  v_message : string;
  v_prefix : Renaming_sched.Directed.choice list;
      (** the decisions of the failing execution, up to the failure *)
  v_condensed : string;
      (** dejafu-style condensed rendering of [v_prefix], e.g.
          [S0x2--P1--S2] *)
  v_shrunk : Renaming_faults.Shrink.result option;
      (** 1-minimal reduction (present unless shrinking was disabled or
          the failure stopped reproducing) *)
}

type stats = {
  s_target : string;
  s_engine : string;  (** {!engine_name} of the engine that ran *)
  s_schedules : int;  (** distinct complete executions checked *)
  s_points : int;  (** decision points expanded *)
  s_races : int;  (** reversible races detected (DPOR) *)
  s_wakeups : int;  (** reordering witnesses committed to wakeup trees (DPOR) *)
  s_pruned : int;
      (** alternatives skipped as redundant: sleep-set hits (both
          engines) and witnesses already covered by a pending branch
          (DPOR) *)
  s_budget_skipped : int;
      (** witnesses or runs discarded by the preemption budget or an
          infeasible wakeup descent (DPOR) *)
  s_livelocks : int;  (** executions cut off by [b_max_ticks] *)
  s_violations : int;  (** total failing executions *)
  s_capped : bool;  (** exploration stopped at [b_max_schedules] *)
  s_baseline : int option;
      (** sleep-set baseline schedule count for this target, when known
          (from the roster) — the denominator of the reduction ratio *)
  s_cases : case list;  (** first few violations, in discovery order *)
}

val reduction : stats -> float option
(** [s_schedules / s_baseline], when a positive baseline is known. *)

val check :
  ?engine:engine ->
  ?bounds:bounds ->
  ?shrink:bool ->
  ?max_cases:int ->
  ?baseline:int ->
  ?on_schedule:(Renaming_sched.Directed.choice array -> unit) ->
  ?obs:Renaming_obs.Obs.t ->
  refine:Renaming_faults.Monitor.refine ->
  target ->
  stats
(** Exhaustively explores [target] within [bounds] using [engine]
    (default [`Dpor]).  [shrink] (default [true]): minimise each
    recorded violation.  [max_cases] (default [8]) caps the number of
    *recorded* cases ([s_violations] still counts all of them).
    [baseline] is stored in [s_baseline] for reduction-ratio reporting.
    [on_schedule] is invoked with the full decision sequence of every
    counted execution — a debugging/testing hook (e.g. asserting that no
    schedule is ever revisited).  With [obs], the final stats are
    accumulated onto the [mcheck/targets], [mcheck/schedules],
    [mcheck/points], [mcheck/races], [mcheck/wakeups], [mcheck/pruned],
    [mcheck/violations] and [mcheck/livelocks] counters.  The
    exploration itself never sees [obs], so the visited schedule space
    is identical either way.

    [refine] is the spec: {!Renaming_faults.Monitor.create} applies it
    to [t_name] once per executed schedule (fresh checker state each
    time), at both engines and through shrinking replays; its
    ["refine:..."] violations register like discipline kinds. *)

val pp_stats : Format.formatter -> stats -> unit

val to_json : stats list -> string
(** The [results/mcheck.json] payload (schema [renaming.mcheck/2]):
    per-target engine, schedule/race/wakeup/pruned counts, baseline and
    reduction ratio, violations with condensed traces, plus aggregate
    totals. *)

(** Chaos campaign runner: sweep the cross-product of
    {algorithm × adversary × crash/recovery pattern × fault rate × seeds},
    run every cell under the online safety {!Monitor} (executor
    discipline plus the spec), and summarise
    safety violations, livelocks and step-complexity degradation versus
    the fault-free fair-schedule baseline.

    The runner is generic over instance builders, so it lives below
    [lib/core]; the standard roster of paper algorithms is assembled in
    {!Renaming_harness.Chaos} and driven by [renaming chaos] / [make
    chaos]. *)

type algorithm = {
  algo_name : string;
  build : seed:int64 -> Renaming_sched.Executor.instance;
      (** must return a fresh instance; all algorithm randomness derives
          from [seed] so campaigns are deterministic *)
}

type adversary_spec = {
  adv_name : string;
  make_adversary : seed:int64 -> Renaming_sched.Adversary.t;
}

type pattern = {
  pat_name : string;
  schedule : seed:int64 -> n:int -> (int * int) list;  (** crash times, {!Renaming_workload.Crash_pattern} *)
  recover_after : n:int -> int option;
      (** [Some d]: each crashed pid is resurrected [d] ticks later
          (crash-recovery mode); [None]: crashes are permanent *)
}

val no_crashes : pattern

type spec = {
  algorithms : algorithm list;
  adversaries : adversary_spec list;
  patterns : pattern list;
  fault_rates : float list;  (** transient-fault probability per faultable op *)
  seeds : int64 array;
  max_ticks : int;  (** livelock guard per run *)
}

type cell = {
  c_algorithm : string;
  c_adversary : string;
  c_pattern : string;
  c_rate : float;
  c_runs : int;
  c_violations : int;  (** monitor and spec violations + post-hoc soundness failures *)
  c_messages : string list;  (** one per violating run *)
  c_livelocks : int;  (** runs cut off by [max_ticks] *)
  c_injected : int;  (** transient faults actually injected *)
  c_crashed : int;  (** processes dead at end, summed over runs *)
  c_recovered : int;
  c_unnamed : int;  (** surviving unnamed processes, summed over runs *)
  c_mean_max_steps : float;  (** over completed (non-livelock, non-violating) runs *)
  c_baseline_max_steps : float;
  c_repros : Shrink.repro list;
      (** every monitor violation in the cell, auto-shrunk to a
          1-minimal replayable counterexample (see {!Shrink}) *)
}

val degradation : cell -> float
(** Step-complexity degradation: mean max-steps of the cell over the
    algorithm's fault-free round-robin baseline. *)

type summary = {
  cells : cell list;
  total_runs : int;
  total_violations : int;
  total_livelocks : int;
  total_injected : int;
}

val run :
  ?progress:(done_:int -> total:int -> unit) ->
  ?obs:Renaming_obs.Obs.t ->
  refine:Monitor.refine ->
  spec ->
  summary
(** Runs every cell; a failing run — a monitor or spec violation, or
    any other exception, as {!Monitor.verdict} classifies it — counts as
    a violation of its cell and is shrunk from the schedule
    {!Renaming_sched.Trace} read off its event stream.  Deterministic
    given [spec.seeds].  With [obs], campaign totals are recorded on the registry as the
    [chaos/cells], [chaos/runs], [chaos/violations], [chaos/livelocks]
    and [chaos/injected_faults] counters.

    [refine] is the spec: {!Monitor.create} applies it once per run
    (fresh checker state), including shrinking replays, so
    ["refine:..."] violations reduce to replayable repros.  After each
    completed run, {!Renaming_sched.Report.is_sound} re-checks the final
    assignment as a guard on the spec. *)

val ok : summary -> bool
(** Zero safety violations {e and} zero livelocks: a run cut off by
    [max_ticks] never proved its processes named. *)

val to_json : summary -> string

val pp : Format.formatter -> summary -> unit

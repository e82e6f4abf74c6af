(** Counterexample shrinking: delta-debugging minimisation of directed
    schedules that trigger a {!Monitor} violation.

    Given a deterministic instance builder and a failing
    {!Renaming_sched.Directed.choice} prefix, {!shrink} searches for a
    1-minimal prefix that still triggers the *same* failure — same
    {!Monitor.violation} [kind] (or livelock) — by re-replaying the
    instance from scratch after every candidate cut.  Passes, in order:

    + truncate to the decisions the failing run actually took;
    + drop all transient-fault injections;
    + drop all crash/recover events;
    + drop every choice touching one pid (per pid);
    + ddmin chunk removal down to granularity 1 (1-minimality: removing
      any single remaining choice no longer reproduces the failure).

    Every replay is classified by {!Monitor.verdict}, the same verdict
    the chaos campaign, the fuzzer and the model checker give their
    runs.  Minimised counterexamples become replayable [repro] artifacts
    through {!to_repro} (plain text, [repro_to_string]/[repro_of_string]),
    persisted under [results/repros/] by the chaos campaign, the fuzzer
    and [renaming mcheck], and replayed by [renaming shrink]. *)

type failure = Monitor.failure = {
  f_kind : string;  (** {!Monitor.violation} kind, or ["livelock"], or ["exception:<name>"] *)
  f_message : string;
}
(** The failure of {!Monitor.verdict}; a livelock, which the verdict
    keeps apart from failures, counts as one here with kind
    ["livelock"]. *)

type input = {
  label : string;  (** target name: passed to the spec factory and used in reports *)
  build : unit -> Renaming_sched.Executor.instance;
      (** must return a fresh, deterministic instance — same memory and
          programs every call — or replays diverge *)
  choices : Renaming_sched.Directed.choice list;  (** the failing prefix *)
  max_ticks : int;  (** livelock guard per replay *)
  tau_cadence : int;
      (** τ-device cycle cadence the failure was observed under (see
          {!Renaming_sched.Executor.run}); replays must match it or
          device-timing failures do not reproduce.  Use [1] for
          algorithms without τ-registers (the executor default). *)
}

type result = {
  r_label : string;
  r_failure : failure;  (** failure of the minimised prefix *)
  r_original : Renaming_sched.Directed.choice list;  (** the input prefix *)
  r_choices : Renaming_sched.Directed.choice list;  (** minimised, 1-minimal *)
  r_replays : int;  (** executions spent, including the initial check *)
}

val execute :
  refine:Monitor.refine ->
  input ->
  Renaming_sched.Directed.choice list ->
  Renaming_sched.Directed.result * failure option
(** One monitored replay of a candidate prefix (permissive mode):
    builds a fresh instance, runs it under the safety {!Monitor} with a
    fresh spec hook from [refine], and classifies the outcome with
    {!Monitor.verdict}.  [None] means the run completed cleanly.  Spec violations (["refine:..."])
    classify like discipline ones, so they shrink with exact-kind
    matching. *)

val shrink :
  ?max_replays:int ->
  refine:Monitor.refine ->
  input ->
  result option
(** [None] if [input.choices] does not fail in the first place.
    [max_replays] (default [4000]) caps total executions; if the budget
    runs out the result is still a valid counterexample, just not
    necessarily 1-minimal.  [refine] as in {!execute}. *)

type repro = {
  rp_algorithm : string;
  rp_n : int;
  rp_seed : int64;
  rp_max_ticks : int;
  rp_tau_cadence : int;
  rp_kind : string;
  rp_choices : Renaming_sched.Directed.choice list;
}

val to_repro : n:int -> seed:int64 -> max_ticks:int -> tau_cadence:int -> result -> repro
(** The artifact of a shrink result: the algorithm is [r_label], the
    kind that of [r_failure], the trace [r_choices]; [n] and [seed]
    rebuild the instance, [max_ticks] and [tau_cadence] are the guard
    and cadence it failed under.  The only place a [repro] is built
    from a shrink. *)

val repro_to_string : repro -> string
(** Plain-text artifact: [key: value] headers ([algorithm], [n], [seed],
    [max-ticks], [tau-cadence], [kind], [trace-format: condensed])
    followed by a [trace:] section holding one dejafu-style
    {!Renaming_sched.Directed.condensed} line, e.g. [S0x2--P1--S2]. *)

val repro_of_string : string -> (repro, string) Stdlib.result
(** Inverse of {!repro_to_string}, and also reads artifacts from
    outside the program: a [trace-format: choices] body or one without
    the header is read as one {!Renaming_sched.Directed.choice_to_string}
    line per choice.  The [tau-cadence] header is optional ([1]) so
    artifacts written before it existed still parse; unknown headers
    (such as the retired [check-ownership]) are ignored. *)

val repro_to_json : repro -> string
(** One JSON object (algorithm, n, seed, kind, tau_cadence, choices),
    the form campaign summaries embed. *)

val choices_to_json : Renaming_sched.Directed.choice list -> string
(** The comma-separated JSON strings of {!Renaming_sched.Directed.choice_to_string},
    without brackets. *)

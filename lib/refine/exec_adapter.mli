(** Adapter from {!Renaming_sched.Executor.event} streams to the
    {!Obs_event} vocabulary, for the one-shot executor backends
    ([Executor.run] / [Directed.run] — chaos, mcheck, fuzz, shrink).

    This is the executor path's only name oracle: uniqueness, namespace
    bounds and ownership of every returned name are the spec's
    enabledness conditions, checked here.
    [Renaming_faults.Monitor] keeps only executor discipline and
    composes this adapter's hook after its own checks (the
    {!hook_for} factory is its [~refine] argument).

    Three extraction modes, chosen by target name ({!mode_of_name}):

    - {!Tas}: the paper algorithms.  A name is granted by winning its
      namespace TAS register, released by [Release_name], and asserted
      by a successful [Owned_name] probe or a [Some] return value.  A
      return is always a claim: returning a name the session does not
      hold — nobody's, or somebody else's — is inexplicable.  Faulted
      operations never touch memory, so they are stutters.
    - {!Returns}: the service protocol models ([Handoff],
      [Shard_handoff], [Net_dedup] and their mutants).  Names live in
      model-internal words/aux registers, so the only observable grant
      is the returned value; everything else is a stutter.
    - {!Announce}: models that narrate their own observable events by
      writing {!Obs_event.encode}d values to word 0 ({!Grant_model});
      their return values are not observed.

    A refinement violation is raised as
    [Renaming_faults.Monitor.Violation] with kind
    ["refine:<reason>"], so every existing catch / shrink / repro path
    handles it with no new plumbing. *)

type mode = Tas | Returns | Announce

val mode_of_name : string -> mode
(** By target-name prefix: the service-model families ([lease-handoff],
    [shard-handoff], [net-dedup] and their mutants) map to {!Returns},
    the [refine-grant] / [mutant-refine] family to {!Announce},
    everything else to {!Tas}. *)

type t

val create : ?obs:Renaming_obs.Obs.t -> mode:mode -> namespace:int -> unit -> t
(** One adapter per run (it owns the trace's {!Check.t}); [namespace]
    is the instance's [Memory.namespace]. *)

val hook : t -> Renaming_sched.Executor.event -> unit
(** Raises [Renaming_faults.Monitor.Violation { kind = "refine:..."; _ }]
    on the first inexplicable event. *)

val check : t -> Check.t

val hook_for : ?obs:Renaming_obs.Obs.t -> unit -> Renaming_faults.Monitor.refine
(** [create] + [hook] with the mode resolved from [name] — the
    {!Renaming_faults.Monitor.refine} factory every executor-path runner
    requires. *)

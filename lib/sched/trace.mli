(** Schedule traces: record a run's decisions from the executor's event
    stream and hand them back as a replayable {!Directed.choice} prefix.

    Because algorithm randomness is already pinned by the seed, the
    decisions — who stepped, who had a step fault, who crashed, who
    recovered — are the {e entire} remaining nondeterminism of a run.
    Replaying {!choices} with [Directed.run ~strict:true] against a
    fresh instance with the same seeds yields an identical report; the
    test suite checks this for the chaos roster under every adversary,
    crash recovery and injected faults.

    Traces also feed the analysis helpers: per-process step timelines
    and operation census. *)

type t

val create : unit -> t

val record : t -> Executor.event -> unit
(** The [on_event] hook: appends every decision event ([Stepped],
    [Crashed], [Recovered]); [Returned] is not a decision and is
    dropped.  Compose it {e before} a monitor hook that may raise, so
    the decision a violation was raised on is part of the trace.  A step
    whose operation raises inside the executor emits no event and so is
    not recorded. *)

val length : t -> int
(** Decisions recorded. *)

val choices : t -> Directed.choice list
(** The recorded decisions as a replayable prefix, in order: a step
    that responded {!Op.Faulted} becomes [Fault], any other step
    [Step], a crash [Crash], a recovery [Recover]. *)

val census : t -> (string * int) list
(** Operation counts by kind (["tas-name", 812; ...]), sorted by kind
    name; crashes appear as ["crash"]. *)

val pp_summary : Format.formatter -> t -> unit

val pp_timeline :
  ?max_pids:int -> ?max_events:int -> Format.formatter -> t -> unit
(** ASCII timeline: one lane per process (lowest pids first), one column
    per recorded event.  Lane glyphs: [t] TAS, [r] read, [m] owned-name,
    [s] τ-submit, [p] τ-poll, [w] word write, [o] word read, [l]
    release, [y] yield, [X] crash, [R] recover, [.] idle.  Intended for
    eyeballing small adversarial executions. *)

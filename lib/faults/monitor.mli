(** Online safety monitor: the executor-discipline half of every
    executor-path run (chaos, mcheck, fuzz, shrink), with the name
    oracle — the centralized spec — composed in.

    The split of duties:

    - {b the spec} owns the paper's safety property, that every process
      gets a {e distinct} name from [[0, m)]: uniqueness, namespace
      bounds and ownership (a returned name must be backed by a win).
      [lib/faults] sits below [lib/refine], so the spec arrives as a
      {!refine} factory ([Renaming_refine.Exec_adapter.hook_for] in
      practice) and its violations surface as ["refine:<reason>"]
      kinds;
    - {b the monitor} owns what only the executor can get wrong: crash
      discipline (no step, return or second crash by a crashed process;
      recovery only of crashed processes; no activity after returning)
      and, at {!finalize}, step-ledger consistency — the report's
      per-process ledger and tick count match the monitor's own event
      counts, and the final assignment holds exactly the values the
      processes returned.

    {!hook} runs the monitor's checks first and the spec hook second,
    so a failure both could see keeps its discipline kind.  Composition
    lives here and nowhere else: no executor-path runner can attach a
    monitor without the spec.

    A violation raises {!Violation} carrying a stable [kind] tag (used
    by the model checker and shrinker to decide whether two failures are
    "the same") and a [message]; the monitor's own messages embed the
    last few events — the failure is caught at the offending step, not
    discovered in a post-hoc report diff. *)

type violation = {
  kind : string;
      (** stable machine-readable tag, e.g. ["step-after-crash"],
          ["ledger-mismatch"], or the spec's ["refine:claim-unbacked"] *)
  message : string;  (** human-readable description plus trace excerpt *)
}

exception Violation of violation

type refine = name:string -> namespace:int -> Renaming_sched.Executor.event -> unit
(** The spec-hook factory every executor-path runner requires: applied
    once per run to the target's name and the instance's namespace, it
    returns a fresh hook that raises {!Violation} with a
    ["refine:<reason>"] kind on the first inexplicable event. *)

type t

val create : refine:refine -> name:string -> Renaming_sched.Executor.instance -> t
(** A monitor for one run of [instance] (target [name]), with a fresh
    spec hook from [refine]. *)

val hook : t -> Renaming_sched.Executor.event -> unit
(** Feed one event: the discipline checks, then the spec hook.  Raises
    {!Violation} on the first broken invariant. *)

val finalize : t -> Renaming_sched.Report.t -> unit
(** Post-run consistency checks; raises {!Violation} on mismatch. *)

(** A failed run: the {!violation} kind, ["exception:<name>"] for any
    other exception, or ["livelock"] (built by the shrinker, which
    treats a livelock as a failure to reproduce). *)
type failure = { f_kind : string; f_message : string }

type verdict =
  | Clean of Renaming_sched.Report.t  (** finished, finalized, no violation *)
  | Livelocked of Renaming_sched.Report.t
      (** cut off by the livelock guard; finalized like a clean run *)
  | Failed of failure

val verdict : t -> Renaming_sched.Directed.outcome -> verdict
(** The one classification of a monitored run, shared by chaos, fuzz,
    mcheck and the shrinker.  A raised {!Violation} is [Failed] with its
    kind, any other exception [Failed] with kind
    ["exception:<name>"].  A finished run — livelocked ones included —
    goes through {!finalize} first, so a ledger or assignment mismatch
    is [Failed] even when the guard tripped. *)

(** Processes as resumable programs over shared-memory operations.

    A program is a free monad over {!Op.t}: it is either [Done v] or
    parked at a shared-memory operation with a continuation awaiting the
    response.  The executor advances one parked operation per scheduled
    step; everything between two operations (arithmetic, coin flips) is
    local computation and costs nothing, per the model of §II-A.

    {b Cost model.}  The model's local computation is free, but the
    simulator's is not: every executed step allocates what the program
    builds to park at its next operation.  A primitive allocates its
    {!Op.t}, one [Step] and one continuation closure.  Each [bind] (each
    [let*]) layer above it then re-wraps {e every} step the inner
    program takes in a fresh [Step] plus a closure, and the inner
    program's result comes back boxed in a [Done]; two [let*] layers
    over a scan double the scan's per-step cost.  The continuation
    forms ([tas_name_k], [scan_names_k], [tau_submit_k], [tau_await_k])
    take the rest of the program as an argument instead, so the step
    costs only the primitive's own allocation whatever the nesting.
    Use them on paths the executor runs millions of times (the core
    algorithms); [let*] stays the readable choice everywhere else.  The
    two styles schedule identically: a direct form is its continuation
    form applied to {!return}. *)

type 'a t =
  | Done of 'a
  | Step of Op.t * (Op.response -> 'a t)

val return : 'a -> 'a t

val bind : 'a t -> ('a -> 'b t) -> 'b t

val map : ('a -> 'b) -> 'a t -> 'b t

module Syntax : sig
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
  val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
end

(** {2 Primitive operations} *)

val tas_name : int -> bool t
(** Try to win namespace register [i]; [true] iff won. *)

val tas_name_k : int -> (bool -> 'b t) -> 'b t
(** [tas_name_k i k] is [bind (tas_name i) k] without the [Done] and
    the re-wrap. *)

val tas_aux : int -> bool t
val read_name : int -> bool t
val read_aux : int -> bool t
val release_name : int -> bool t
(** Free a namespace register this process owns; [true] iff it did own
    it (long-lived renaming only). *)

val owned_name : int -> bool t
(** Does this process own namespace register [i]?  The crash-recovery
    primitive: a resurrected process re-discovers a name it won before
    crashing.  Costs one step; never faulted. *)

val yield : unit t
(** One deliberate no-op step — the backoff unit of the transient-fault
    retry helpers. *)

(** {2 Fault-aware primitives}

    Like their plain counterparts, but surface an injected transient
    fault as [Error `Faulted] instead of raising.  The plain primitives
    treat [Faulted] as a protocol error ([Failure]) so that code not
    written for the fault model fails fast rather than misbehaving;
    fault-tolerant retry loops ({!Renaming_faults.Retry}) build on these
    variants. *)

val try_tas_name : int -> (bool, [ `Faulted ]) result t
val try_tas_aux : int -> (bool, [ `Faulted ]) result t
val try_read_name : int -> (bool, [ `Faulted ]) result t
val try_read_aux : int -> (bool, [ `Faulted ]) result t

val read_word : int -> int t
(** Read an atomic read/write register. *)

val write_word : idx:int -> value:int -> unit t

val tau_submit : reg:int -> bit:int -> unit t

val tau_submit_k : reg:int -> bit:int -> (unit -> 'b t) -> 'b t
(** Continuation form of {!tau_submit}. *)

val tau_poll : int -> Renaming_device.Tau_register.answer t

val tau_await : int -> bool t
(** Poll τ-register [reg] until the answer is no longer [Pending];
    [true] iff the bit was won.  Each poll is a step; the executor's
    device cadence bounds the number of polls by a constant. *)

val tau_await_k : int -> (bool -> 'b t) -> 'b t
(** Continuation form of {!tau_await}.  The wait is one preallocated
    [Step] that a [Pending] answer returns again, so a poll that finds
    the request still queued allocates nothing. *)

(** {2 Composite helpers used by several algorithms} *)

val scan_names : first:int -> count:int -> int option t
(** TAS registers [first .. first+count-1] in order until one is won;
    returns the won name, or [None] if all were taken. *)

val scan_names_k : first:int -> count:int -> (int option -> 'b t) -> 'b t
(** Continuation form of {!scan_names}. *)

val recover_owned : namespace:int -> int option t
(** Sweep the namespace with {!owned_name} and return the register this
    process already owns, if any.  The standard recovery preamble: run
    after a crash-restart so a process that won a name before crashing
    keeps it instead of leaking it.  Costs up to [namespace] steps. *)

val run_local : 'a t -> 'a option
(** Runs a program only if it performs no shared-memory operation;
    [None] if it parks.  Used in unit tests. *)

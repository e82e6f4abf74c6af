module Program = Renaming_sched.Program
module Op = Renaming_sched.Op
module Clock = Renaming_clock.Clock

type policy = {
  attempts : int;
  base_delay : int;
  max_delay : int;
  time_budget : float option;
}

let make_policy ?(attempts = 8) ?(base_delay = 1) ?(max_delay = 64) ?time_budget () =
  if attempts < 1 then invalid_arg "Retry.make_policy: attempts must be >= 1";
  if base_delay < 0 then invalid_arg "Retry.make_policy: base_delay must be >= 0";
  if max_delay < base_delay then invalid_arg "Retry.make_policy: max_delay < base_delay";
  (match time_budget with
  | Some b when b <= 0. -> invalid_arg "Retry.make_policy: time_budget must be > 0"
  | _ -> ());
  { attempts; base_delay; max_delay; time_budget }

let default = make_policy ()

let backoff_delay policy ~attempt =
  (* attempt is 1-based: the delay before attempt k+1 is base * 2^(k-1),
     capped.  Shift guarded so huge attempt counts cannot overflow. *)
  let exp = min 20 (attempt - 1) in
  min policy.max_delay (policy.base_delay * (1 lsl exp))

(* Decorrelated jitter: the next delay is uniform on
   [base_delay, min (max_delay, 3 * prev)].  Unlike full jitter over the
   exponential ladder, the walk decorrelates competing clients (each
   one's next delay depends on its own previous draw, not on a shared
   attempt counter) while the 3x growth bound keeps the expected delay
   rising toward the cap under persistent contention.  [prev] is the
   caller-threaded state: pass [base_delay] (or a previous return value)
   — it is clamped into [max 1 base_delay, max_delay] so a degenerate
   seed cannot pin the walk at zero. *)
let jittered_delay policy ~rng ~prev =
  let lo = policy.base_delay in
  let prev = min policy.max_delay (max prev (max 1 lo)) in
  let hi = max lo (min policy.max_delay (3 * prev)) in
  Renaming_rng.Sample.uniform_in_range rng ~lo ~hi

let rec idle k = if k <= 0 then Program.return () else Program.bind Program.yield (fun () -> idle (k - 1))

(* What a retry loop needs besides its operation: the policy, the clock
   and its reading when the loop started, and the safe answer on
   exhaustion.  Callers that pass neither a policy nor a clock share one
   of two constant contexts ({!Clock.none} always reads 0). *)
type ctx = { policy : policy; clock : Clock.t; t0 : float; exhausted : bool }

let ctx_lost = { policy = default; clock = Clock.none; t0 = 0.; exhausted = false }
let ctx_set = { policy = default; clock = Clock.none; t0 = 0.; exhausted = true }

let ctx ?policy ?clock ~exhausted () =
  match (policy, clock) with
  | None, None -> if exhausted then ctx_set else ctx_lost
  | _ ->
    let clock = Option.value clock ~default:Clock.none in
    { policy = Option.value policy ~default; clock; t0 = Clock.now clock; exhausted }

(* Run a Bool-responding operation with bounded retry and hand [k] its
   answer on a normal response, [ctx.exhausted] when every attempt was
   eaten by a transient fault.  The clock bounds total retry time: once
   the policy's [time_budget] is spent (measured on the injected clock
   from [t0], so virtual under the simulator), further faults exhaust
   immediately instead of backing off again.  With the default
   {!Clock.none} the budget never binds and behaviour is unchanged.
   Each attempt is a single [Step], so a fault-free operation costs one
   step record and one continuation. *)
let rec bool_attempt ctx op attempt k =
  Program.Step
    ( op,
      function
      | Op.Bool b -> k b
      | Op.Faulted ->
        let budget_spent () =
          match ctx.policy.time_budget with
          | None -> false
          | Some budget -> Clock.elapsed_since ctx.clock ctx.t0 >= budget
        in
        if attempt >= ctx.policy.attempts || budget_spent () then k ctx.exhausted
        else
          Program.bind (idle (backoff_delay ctx.policy ~attempt)) (fun () ->
              bool_attempt ctx op (attempt + 1) k)
      | resp ->
        Format.kasprintf failwith "Retry: operation %a got response %a" Op.pp op Op.pp_response
          resp )

(* Giving up must stay on the safe side of every invariant:
   - a TAS that keeps faulting counts as *lost* — the process never
     claims a name it cannot prove it won;
   - a read that keeps faulting counts as *set* — a scanner skips the
     register instead of fighting for information it cannot get. *)
let tas_name_k ?policy ?clock i k =
  bool_attempt (ctx ?policy ?clock ~exhausted:false ()) (Op.Tas_name i) 1 k

let tas_name ?policy ?clock i = tas_name_k ?policy ?clock i Program.return

let tas_aux ?policy ?clock i =
  bool_attempt (ctx ?policy ?clock ~exhausted:false ()) (Op.Tas_aux i) 1 Program.return

let read_name ?policy ?clock i =
  bool_attempt (ctx ?policy ?clock ~exhausted:true ()) (Op.Read_name i) 1 Program.return

let read_aux ?policy ?clock i =
  bool_attempt (ctx ?policy ?clock ~exhausted:true ()) (Op.Read_aux i) 1 Program.return

let scan_names_k ?policy ?clock ~first ~count k =
  let rec loop j =
    if j >= count then k None
    else
      tas_name_k ?policy ?clock (first + j) (fun won ->
          if won then k (Some (first + j)) else loop (j + 1))
  in
  loop 0

let scan_names ?policy ?clock ~first ~count () =
  scan_names_k ?policy ?clock ~first ~count Program.return

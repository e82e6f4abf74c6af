type instance = {
  memory : Memory.t;
  programs : int option Program.t array;
  label : string;
}

type event =
  | Stepped of { time : int; pid : int; op : Op.t; response : Op.response }
  | Crashed of { time : int; pid : int }
  | Recovered of { time : int; pid : int }
  | Returned of { time : int; pid : int; value : int option }

let pp_event fmt = function
  | Stepped { time; pid; op; response } ->
    Format.fprintf fmt "t=%d p%d %a -> %a" time pid Op.pp op Op.pp_response response
  | Crashed { time; pid } -> Format.fprintf fmt "t=%d p%d CRASH" time pid
  | Recovered { time; pid } -> Format.fprintf fmt "t=%d p%d RECOVER" time pid
  | Returned { time; pid; value } ->
    Format.fprintf fmt "t=%d p%d return %s" time pid
      (match value with Some v -> string_of_int v | None -> "none")

(* The runnable set is a swap-compacted array: [arr.(0 .. len-1)] are the
   runnable pids and [pos.(pid)] is the index of [pid] in [arr] (or -1).
   Removal is O(1), which keeps fair schedulers O(1) per tick. *)
type live_set = { arr : int array; pos : int array; mutable len : int }

let live_create n = { arr = Array.init n (fun i -> i); pos = Array.init n (fun i -> i); len = n }

let live_remove t pid =
  let i = t.pos.(pid) in
  if i < 0 then invalid_arg "Executor: removing non-live pid";
  let last = t.arr.(t.len - 1) in
  t.arr.(i) <- last;
  t.pos.(last) <- i;
  t.pos.(pid) <- -1;
  t.len <- t.len - 1

let live_add t pid =
  if t.pos.(pid) >= 0 then invalid_arg "Executor: adding already-live pid";
  t.arr.(t.len) <- pid;
  t.pos.(pid) <- t.len;
  t.len <- t.len + 1

(* The doomed-set tracker answers [Adversary.view.first_doomed] without
   a scan.  A runnable pid is *doomed* when its pending operation is a
   [Tas_name]/[Tas_aux] on a register that is already set.  Every
   runnable pid parked at a TAS sits on its register's intrusive list
   (names registers first, then aux: register [r] of aux is list
   [n_names + r]); [bits] holds one bit per live-set index, set iff the
   pid at that index is doomed.  The doomed status changes only when a
   TAS wins (its whole list becomes doomed), a release succeeds (its
   whole list is freed), a pid's pending operation changes (it is
   relinked), or the live set swaps a pid into a new index (its bit
   moves).  Each is O(1) per pid touched. *)
type tracker = {
  names : Renaming_shm.Tas_array.t;
  aux : Renaming_shm.Tas_array.t;
  n_names : int;
  head : int array;  (** per register list: first pid, or -1 *)
  next : int array;  (** per pid *)
  prev : int array;  (** per pid *)
  reg : int array;  (** per pid: the list it is on, or -1 *)
  bits : int array;  (** 32 live-set indices per word *)
}

let bit_get tr i = tr.bits.(i lsr 5) land (1 lsl (i land 31)) <> 0
let bit_set tr i = tr.bits.(i lsr 5) <- tr.bits.(i lsr 5) lor (1 lsl (i land 31))
let bit_clear tr i = tr.bits.(i lsr 5) <- tr.bits.(i lsr 5) land lnot (1 lsl (i land 31))

(* Index of the lowest set bit of a nonzero 32-bit word. *)
let lowest_bit w =
  let w = w land -w in
  let i = if w land 0xFFFF0000 <> 0 then 16 else 0 in
  let i = if w land 0xFF00FF00 <> 0 then i + 8 else i in
  let i = if w land 0xF0F0F0F0 <> 0 then i + 4 else i in
  let i = if w land 0xCCCCCCCC <> 0 then i + 2 else i in
  if w land 0xAAAAAAAA <> 0 then i + 1 else i

let register_of tr (op : Op.t) =
  match op with
  | Tas_name i -> i
  | Tas_aux i -> tr.n_names + i
  | Read_name _ | Read_aux _ | Owned_name _ | Tau_submit _ | Tau_poll _ | Read_word _
  | Write_word _ | Release_name _ | Yield ->
    -1

let register_set tr r =
  if r < tr.n_names then Renaming_shm.Tas_array.is_set tr.names r
  else Renaming_shm.Tas_array.is_set tr.aux (r - tr.n_names)

(* [pid] is live at index [i] and parked at [op]. *)
let track_link tr ~i pid op =
  let r = register_of tr op in
  tr.reg.(pid) <- r;
  if r >= 0 then begin
    let h = tr.head.(r) in
    tr.next.(pid) <- h;
    tr.prev.(pid) <- -1;
    if h >= 0 then tr.prev.(h) <- pid;
    tr.head.(r) <- pid;
    if register_set tr r then bit_set tr i
  end

(* [pid] is live at index [i]; forget its pending operation. *)
let track_unlink tr ~i pid =
  let r = tr.reg.(pid) in
  if r >= 0 then begin
    let p = tr.prev.(pid) and nx = tr.next.(pid) in
    if p >= 0 then tr.next.(p) <- nx else tr.head.(r) <- nx;
    if nx >= 0 then tr.prev.(nx) <- p;
    tr.reg.(pid) <- -1;
    bit_clear tr i
  end

(* Register [r] was just set ([doomed]) or freed: every pid on its list
   follows. *)
let track_register tr live r ~doomed =
  let p = ref tr.head.(r) in
  while !p >= 0 do
    let i = live.pos.(!p) in
    if doomed then bit_set tr i else bit_clear tr i;
    p := tr.next.(!p)
  done

(* [live_remove] is about to move the pid at the last index into [i]. *)
let track_swap tr live ~i =
  let last = live.len - 1 in
  if bit_get tr last then bit_set tr i else bit_clear tr i;
  bit_clear tr last

let track_first_doomed tr live window =
  let limit = Int.min window live.len in
  if limit <= 0 then -1
  else begin
    let found = ref (-1) and w = ref 0 in
    let last_word = (limit - 1) lsr 5 in
    while !found < 0 && !w <= last_word do
      let word = tr.bits.(!w) in
      if word <> 0 then found := (!w lsl 5) + lowest_bit word;
      incr w
    done;
    if !found >= 0 && !found < limit then live.arr.(!found) else -1
  end

(* Per-run telemetry: counter handles are resolved once here so the
   per-step cost with a capability is two field increments plus one
   ring push, and without one is a single match on [None]. *)
type obs_hooks = {
  h_obs : Renaming_obs.Obs.t;
  h_steps : Renaming_obs.Metrics.counter;
}

let run ?obs ?(tau_cadence = 1) ?(max_ticks = 1_000_000_000) ?on_tick ?on_event ?inject ?recover
    ?on_track ~adversary instance =
  if tau_cadence < 1 then invalid_arg "Executor.run: tau_cadence must be >= 1";
  let n = Array.length instance.programs in
  (* A pid is running while it is in [live]: [progs.(pid)] is then its
     program, parked at its next operation.  Otherwise it is crashed (by
     its [crashed] flag) or has returned, and [progs.(pid)] is [Done]
     with its return value. *)
  let progs = Array.copy instance.programs in
  let live = live_create n in
  let ledger = Renaming_shm.Step_ledger.create ~processes:n in
  let crashed = Bytes.make n '\000' in
  let ever_recovered = Bytes.make n '\000' in
  let flag flags pid = Bytes.get flags pid <> '\000' in
  let set_flag flags pid b = Bytes.set flags pid (if b then '\001' else '\000') in
  let is_live pid = live.pos.(pid) >= 0 in
  let time = ref 0 in
  let outcome = ref Report.Completed in
  let hooks =
    match obs with
    | None -> None
    | Some o ->
      Renaming_obs.Obs.set_now o (fun () -> !time);
      Some { h_obs = o; h_steps = Renaming_obs.Obs.counter o (instance.label ^ "/executor.steps") }
  in
  (* Events are only built when someone listens. *)
  let emitting = Option.is_some hooks || Option.is_some on_event in
  let emit e =
    (match hooks with
    | None -> ()
    | Some h -> (
      match e with
      | Stepped { pid; op; _ } ->
        Renaming_obs.Metrics.incr h.h_steps;
        Renaming_obs.Obs.instant h.h_obs ~pid ~args:(Telemetry.op_args op)
          (Telemetry.op_label op)
      | Crashed { pid; _ } -> Renaming_obs.Obs.span_begin h.h_obs ~pid "crashed"
      | Recovered { pid; _ } -> Renaming_obs.Obs.span_end h.h_obs ~pid "crashed"
      | Returned { pid; value; _ } ->
        Renaming_obs.Obs.instant h.h_obs ~pid
          ~args:(match value with Some v -> [ ("name", v) ] | None -> [])
          "return"));
    match on_event with Some f -> f e | None -> ()
  in
  (* Restarting a crashed process: rediscover a name already won (so it
     is kept, not leaked), then rerun its program from the top.  An
     explicit [recover] hook supplies an algorithm-specific restart. *)
  let restart_program pid =
    match recover with
    | Some f -> f pid
    | None ->
      Program.bind (Program.recover_owned ~namespace:(Memory.namespace instance.memory))
        (function
          | Some nm -> Program.return (Some nm)
          | None -> instance.programs.(pid))
  in
  let pending_op pid =
    match progs.(pid) with
    | Program.Step (op, _) when is_live pid -> op
    | Program.Step _ | Program.Done _ -> invalid_arg "Executor: pending_op on non-parked process"
  in
  (* The doomed-set tracker is built by the first [first_doomed] query,
     so adversaries that never ask pay one branch per event for it. *)
  let tracker = ref None in
  let remove pid =
    (match !tracker with
    | None -> ()
    | Some tr ->
      let i = live.pos.(pid) in
      track_unlink tr ~i pid;
      track_swap tr live ~i);
    live_remove live pid
  in
  (* The lowest runnable pid is at or above [cursor]. *)
  let cursor = ref 0 in
  let add pid =
    live_add live pid;
    if pid < !cursor then cursor := pid;
    match (!tracker, progs.(pid)) with
    | Some tr, Program.Step (op, _) -> track_link tr ~i:live.pos.(pid) pid op
    | _ -> ()
  in
  (* A program may be Done without ever touching shared memory. *)
  let settle pid =
    match progs.(pid) with
    | Program.Done v ->
      remove pid;
      if emitting then emit (Returned { time = !time; pid; value = v })
    | Program.Step _ -> ()
  in
  for pid = 0 to n - 1 do
    settle pid
  done;
  let build_tracker () =
    let namespace = Memory.names instance.memory and aux = Memory.aux instance.memory in
    let n_names = Renaming_shm.Tas_array.size namespace in
    let tr =
      {
        names = namespace;
        aux;
        n_names;
        head = Array.make (n_names + Renaming_shm.Tas_array.size aux) (-1);
        next = Array.make n (-1);
        prev = Array.make n (-1);
        reg = Array.make n (-1);
        bits = Array.make ((n + 31) lsr 5) 0;
      }
    in
    for i = 0 to live.len - 1 do
      let pid = live.arr.(i) in
      track_link tr ~i pid (pending_op pid)
    done;
    tracker := Some tr;
    (match on_track with Some f -> f () | None -> ());
    tr
  in
  let first_doomed window =
    let tr = match !tracker with Some tr -> tr | None -> build_tracker () in
    track_first_doomed tr live window
  in
  let min_runnable () =
    while !cursor < n && live.pos.(!cursor) < 0 do
      incr cursor
    done;
    if !cursor < n then !cursor else max_int
  in
  (* One view, updated in place every tick. *)
  let view =
    {
      Adversary.time = 0;
      runnable_count = 0;
      runnable_nth = (fun i -> live.arr.(i));
      is_runnable = (fun pid -> pid >= 0 && pid < n && live.pos.(pid) >= 0);
      is_crashed = (fun pid -> pid >= 0 && pid < n && flag crashed pid);
      pending_op;
      first_doomed;
      min_runnable;
      memory = instance.memory;
    }
  in
  while live.len > 0 && !outcome = Report.Completed do
    view.time <- !time;
    view.runnable_count <- live.len;
    match adversary.Adversary.decide view with
    | Adversary.Crash pid ->
      if not (is_live pid) then invalid_arg "Executor: adversary crashed a non-running process";
      remove pid;
      set_flag crashed pid true;
      if emitting then emit (Crashed { time = !time; pid })
    | Adversary.Recover pid ->
      if not (flag crashed pid) then
        invalid_arg "Executor: adversary recovered a non-crashed process";
      progs.(pid) <- restart_program pid;
      set_flag crashed pid false;
      set_flag ever_recovered pid true;
      add pid;
      if emitting then emit (Recovered { time = !time; pid });
      settle pid
    | Adversary.Schedule pid ->
      (match progs.(pid) with
      | Program.Step (op, k) when is_live pid ->
        let faulted =
          match inject with Some f -> f ~time:!time ~pid ~op | None -> false
        in
        let response = if faulted then Op.Faulted else Memory.apply instance.memory ~pid op in
        Renaming_shm.Step_ledger.record ledger ~pid;
        (match on_tick with Some f -> f ~time:!time ~pid ~op | None -> ());
        if emitting then emit (Stepped { time = !time; pid; op; response });
        let next = k response in
        progs.(pid) <- next;
        (match !tracker with
        | None -> ()
        | Some tr -> (
          let i = live.pos.(pid) in
          (match (op, response) with
          | (Op.Tas_name _ | Op.Tas_aux _), Op.Bool true ->
            track_register tr live (register_of tr op) ~doomed:true
          | Op.Release_name r, Op.Bool true -> track_register tr live r ~doomed:false
          | _ -> ());
          track_unlink tr ~i pid;
          match next with
          | Program.Step (op', _) -> track_link tr ~i pid op'
          | Program.Done _ -> ()));
        settle pid;
        incr time;
        if !time mod tau_cadence = 0 then Memory.tick_taus instance.memory;
        if !time > max_ticks then outcome := Report.Livelock { max_ticks }
      | Program.Step _ | Program.Done _ ->
        invalid_arg "Executor: adversary scheduled a non-runnable process")
  done;
  (* Crashed processes and those still running when the livelock guard
     tripped return nothing. *)
  let returns =
    Array.init n (fun pid ->
        match progs.(pid) with
        | Program.Done v when not (flag crashed pid || is_live pid) -> v
        | Program.Done _ | Program.Step _ -> None)
  in
  let pids_where flags =
    let acc = ref [] in
    for pid = n - 1 downto 0 do
      if flag flags pid then acc := pid :: !acc
    done;
    !acc
  in
  let count flags =
    let c = ref 0 in
    for pid = 0 to n - 1 do
      if flag flags pid then incr c
    done;
    !c
  in
  (match hooks with
  | None -> ()
  | Some h ->
    let o = h.h_obs in
    let steps_hist = Renaming_obs.Obs.histogram o (instance.label ^ "/steps") in
    for pid = 0 to n - 1 do
      Renaming_obs.Hist.observe steps_hist (Renaming_shm.Step_ledger.steps_of ledger ~pid)
    done;
    let named =
      Array.fold_left (fun acc v -> match v with Some _ -> acc + 1 | None -> acc) 0 returns
    in
    Renaming_obs.Metrics.add (Renaming_obs.Obs.counter o (instance.label ^ "/named")) named;
    Renaming_obs.Metrics.add
      (Renaming_obs.Obs.counter o (instance.label ^ "/crashed"))
      (count crashed);
    Renaming_obs.Metrics.add
      (Renaming_obs.Obs.counter o (instance.label ^ "/recovered"))
      (count ever_recovered));
  {
    Report.assignment = Memory.assignment_of_returns instance.memory returns;
    ledger;
    ticks = !time;
    outcome = !outcome;
    crashed = pids_where crashed;
    recovered = pids_where ever_recovered;
    adversary = adversary.Adversary.name;
    counters = [];
  }

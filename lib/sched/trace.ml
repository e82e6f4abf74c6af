module Vec = Renaming_stats.Vec

(* The decisions of a run, in order: every [Stepped], [Crashed] and
   [Recovered] event ([Returned] is not a decision). *)
type t = { events : Executor.event Vec.t }

let create () = { events = Vec.create () }

let record t (e : Executor.event) =
  match e with
  | Stepped _ | Crashed _ | Recovered _ -> Vec.add_last t.events e
  | Returned _ -> ()

let length t = Vec.length t.events

let choice_of_event : Executor.event -> Directed.choice = function
  | Stepped { pid; response = Op.Faulted; _ } -> Fault pid
  | Stepped { pid; _ } -> Step pid
  | Crashed { pid; _ } -> Crash pid
  | Recovered { pid; _ } -> Recover pid
  | Returned _ -> assert false (* [record] drops returns *)

let choices t = List.init (Vec.length t.events) (fun i -> choice_of_event (Vec.get t.events i))

let pid_of : Executor.event -> int = function
  | Stepped { pid; _ } | Crashed { pid; _ } | Recovered { pid; _ } | Returned { pid; _ } -> pid

let op_kind op =
  match (op : Op.t) with
  | Tas_name _ -> "tas-name"
  | Tas_aux _ -> "tas-aux"
  | Read_name _ -> "read-name"
  | Read_aux _ -> "read-aux"
  | Tau_submit _ -> "tau-submit"
  | Tau_poll _ -> "tau-poll"
  | Owned_name _ -> "owned-name"
  | Read_word _ -> "read-word"
  | Write_word _ -> "write-word"
  | Release_name _ -> "release-name"
  | Yield -> "yield"

let census t =
  let counts = Hashtbl.create 16 in
  let bump key = Hashtbl.replace counts key (1 + Option.value (Hashtbl.find_opt counts key) ~default:0) in
  Vec.iter
    (function
      | Executor.Stepped { op; _ } -> bump (op_kind op)
      | Crashed _ -> bump "crash"
      | Recovered _ -> bump "recover"
      | Returned _ -> ())
    t.events;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let pp_summary fmt t =
  Format.fprintf fmt "@[<v>trace: %d events@ " (length t);
  List.iter (fun (kind, count) -> Format.fprintf fmt "%-12s %d@ " kind count) (census t);
  Format.fprintf fmt "@]"

let glyph_of_op (op : Op.t) =
  match op with
  | Tas_name _ | Tas_aux _ -> 't'
  | Read_name _ | Read_aux _ -> 'r'
  | Owned_name _ -> 'm'
  | Tau_submit _ -> 's'
  | Tau_poll _ -> 'p'
  | Write_word _ -> 'w'
  | Read_word _ -> 'o'
  | Release_name _ -> 'l'
  | Yield -> 'y'

let pp_timeline ?(max_pids = 16) ?(max_events = 72) fmt t =
  let events = Vec.to_array t.events in
  let shown = Array.sub events 0 (min max_events (Array.length events)) in
  let pids = Hashtbl.create 16 in
  Array.iter
    (fun e ->
      let pid = pid_of e in
      if not (Hashtbl.mem pids pid) then Hashtbl.add pids pid ())
    shown;
  let lanes = List.sort compare (Hashtbl.fold (fun pid () acc -> pid :: acc) pids []) in
  let lanes = List.filteri (fun i _ -> i < max_pids) lanes in
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun lane ->
      Format.fprintf fmt "p%-3d " lane;
      Array.iter
        (fun e ->
          let c =
            if pid_of e <> lane then '.'
            else
              match e with
              | Executor.Stepped { op; _ } -> glyph_of_op op
              | Crashed _ -> 'X'
              | Recovered _ -> 'R'
              | Returned _ -> '.'
          in
          Format.pp_print_char fmt c)
        shown;
      Format.pp_print_cut fmt ())
    lanes;
  if Array.length events > Array.length shown then
    Format.fprintf fmt "(%d more events)@ " (Array.length events - Array.length shown);
  if List.length lanes = max_pids then Format.fprintf fmt "(lanes capped at %d pids)@ " max_pids;
  Format.fprintf fmt "@]"

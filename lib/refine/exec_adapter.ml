module Executor = Renaming_sched.Executor
module Op = Renaming_sched.Op
module Monitor = Renaming_faults.Monitor

type mode = Tas | Returns | Announce

let has_prefix s ~prefix =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let returns_prefixes =
  [ "lease-handoff"; "mutant-lease"; "shard-handoff"; "mutant-shard"; "net-dedup"; "mutant-net" ]

let announce_prefixes = [ "refine-grant"; "mutant-refine" ]

let mode_of_name name =
  if List.exists (fun prefix -> has_prefix name ~prefix) returns_prefixes then Returns
  else if List.exists (fun prefix -> has_prefix name ~prefix) announce_prefixes then Announce
  else Tas

type t = { mode : mode; check : Check.t; invoked : (int, unit) Hashtbl.t }

let create ?obs ~mode ~namespace () =
  {
    mode;
    check = Check.create ?obs ~config:{ Spec.namespace; one_shot = true } ();
    invoked = Hashtbl.create 8;
  }

let check t = t.check

let violate v =
  raise
    (Monitor.Violation
       {
         kind = "refine:" ^ v.Check.v_reason;
         message = Format.asprintf "refinement: %a" Check.pp_violation v;
       })

let feed t ev = match Check.observe t.check ev with `Ok -> () | `Violation v -> violate v

(* The lazy invocation of the one-shot world: a pid has asked for a name
   the moment it takes its first step. *)
let ensure_invoked t pid =
  if not (Hashtbl.mem t.invoked pid) then (
    Hashtbl.replace t.invoked pid ();
    feed t (Obs_event.Invoked { session = pid }))

let on_tas t (ev : Executor.event) =
  match ev with
  | Stepped { pid; response = Op.Faulted; _ } ->
      (* An injected fault: the op did not touch memory. *)
      ensure_invoked t pid;
      Check.stutter t.check
  | Stepped { pid; op; response; _ } -> (
      ensure_invoked t pid;
      match (op, response) with
      | Op.Tas_name name, Op.Bool true -> feed t (Obs_event.Granted { session = pid; name })
      | Op.Release_name name, Op.Bool true -> feed t (Obs_event.Released { session = pid; name })
      | Op.Owned_name name, Op.Bool true -> feed t (Obs_event.Claimed { session = pid; name })
      | _ -> Check.stutter t.check)
  | Crashed { pid; _ } -> feed t (Obs_event.Crashed { session = pid })
  | Recovered { pid; _ } -> feed t (Obs_event.Recovered { session = pid })
  | Returned { pid; value = Some name; _ } ->
      ensure_invoked t pid;
      (* A paper algorithm returns only a name it TAS-won: the return
         re-asserts that grant, and a name nobody (or somebody else)
         holds is inexplicable. *)
      feed t (Obs_event.Claimed { session = pid; name })
  | Returned { value = None; _ } -> Check.stutter t.check

let on_returns t (ev : Executor.event) =
  match ev with
  | Stepped { pid; _ } ->
      ensure_invoked t pid;
      Check.stutter t.check
  | Crashed { pid; _ } -> feed t (Obs_event.Crashed { session = pid })
  | Recovered { pid; _ } -> feed t (Obs_event.Recovered { session = pid })
  | Returned { pid; value = Some name; _ } ->
      ensure_invoked t pid;
      feed t (Obs_event.Granted { session = pid; name })
  | Returned { value = None; _ } -> Check.stutter t.check

let on_announce t (ev : Executor.event) =
  match ev with
  | Stepped { response = Op.Faulted; _ } -> Check.stutter t.check
  | Stepped { op = Op.Write_word { idx = 0; value }; _ } -> (
      match Obs_event.decode value with
      | Some obs_ev -> feed t obs_ev
      | None ->
          raise
            (Monitor.Violation
               {
                 kind = "refine:bad-announce";
                 message = Printf.sprintf "announce register wrote undecodable value %d" value;
               }))
  | Stepped _ | Crashed _ | Recovered _ | Returned _ ->
      (* Executor crashes hit pids, not the model's announced sessions;
         the model's own narration is the only observable. *)
      Check.stutter t.check

let hook t =
  match t.mode with Tas -> on_tas t | Returns -> on_returns t | Announce -> on_announce t

let hook_for ?obs () ~name ~namespace =
  hook (create ?obs ~mode:(mode_of_name name) ~namespace ())

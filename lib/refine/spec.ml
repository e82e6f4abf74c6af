type config = { namespace : int; one_shot : bool }

type session = { mutable invoked : bool; mutable crashed : bool; mutable holds : int list }

module Sessions = Hashtbl.Make (Int)

(* Session ids are non-negative, so -1 can mark a free name. *)
let free = -1

type t = {
  cfg : config;
  holders : int array;  (* name -> session, or [free] *)
  mutable n_held : int;
  sessions : session Sessions.t;
}

let create cfg =
  if cfg.namespace <= 0 then invalid_arg "Spec.create: namespace must be positive";
  { cfg; holders = Array.make cfg.namespace free; n_held = 0; sessions = Sessions.create 64 }

let config t = t.cfg

type verdict = [ `Step | `Stutter | `Reject of string ]

let session t id =
  match Sessions.find t.sessions id with
  | s -> s
  | exception Not_found ->
      let s = { invoked = false; crashed = false; holds = [] } in
      Sessions.replace t.sessions id s;
      s

let in_range t name = name >= 0 && name < t.cfg.namespace

let holder t ~name =
  if in_range t name && t.holders.(name) <> free then Some t.holders.(name) else None

let held t = t.n_held

(* Whether session [id] holds [name]: false outside the namespace, on a
   free name, and for any id that is not a valid (non-negative) one. *)
let held_by t ~name id = id >= 0 && in_range t name && t.holders.(name) = id

let set_free t name =
  t.holders.(name) <- free;
  t.n_held <- t.n_held - 1

let apply t (ev : Obs_event.t) : verdict =
  match ev with
  | Invoked { session = id } ->
      let s = session t id in
      if s.crashed then `Reject "invoke-while-crashed"
      else if s.invoked then `Stutter
      else (
        s.invoked <- true;
        `Step)
  | Granted { session = id; name } ->
      if not (in_range t name) then `Reject "name-out-of-range"
      else if id < 0 then `Reject "session-out-of-range"
      else
        let s = session t id in
        if s.crashed then `Reject "grant-while-crashed"
        else if t.holders.(name) = id then
          (* Re-announcing a grant the session already holds:
             recovery re-discovery, handoff adoption, retransmit. *)
          `Stutter
        else if t.holders.(name) <> free then `Reject "name-held"
        else if t.cfg.one_shot && not s.invoked then `Reject "grant-without-invoke"
        else if t.cfg.one_shot && s.holds <> [] then `Reject "double-hold"
        else (
          t.holders.(name) <- id;
          t.n_held <- t.n_held + 1;
          s.holds <- name :: s.holds;
          `Step)
  | Claimed { session = id; name } ->
      if not (in_range t name) then `Reject "name-out-of-range"
      else if held_by t ~name id then `Stutter
      else `Reject "claim-unbacked"
  | Released { session = id; name } ->
      if not (held_by t ~name id) then `Reject "release-not-holder"
      else (
        set_free t name;
        let s = session t id in
        s.holds <- List.filter (fun n -> n <> name) s.holds;
        `Step)
  | Reclaimed { session = id; name } ->
      if not (held_by t ~name id) then `Reject "reclaim-not-holder"
      else (
        set_free t name;
        let s = session t id in
        s.holds <- List.filter (fun n -> n <> name) s.holds;
        (* The reclaimed party must ask again before being granted. *)
        if t.cfg.one_shot then s.invoked <- false;
        `Step)
  | Crashed { session = id } ->
      let s = session t id in
      if s.crashed then `Reject "double-crash"
      else (
        s.crashed <- true;
        (* One-shot mode: the crash abandons the session's live claims.
           The names stay consumed ([holders] keeps them — the registers
           are still physically set, so granting one to anyone else
           remains inexplicable), but the recovered re-run competes
           afresh: it may win a new name without tripping [double-hold],
           and re-discovering its old one is a stutter. *)
        if t.cfg.one_shot then s.holds <- [];
        `Step)
  | Recovered { session = id } ->
      let s = session t id in
      if not s.crashed then `Reject "recover-of-live"
      else (
        s.crashed <- false;
        `Step)
  | Shed { session = id } ->
      if t.cfg.one_shot then (
        let s = session t id in
        s.invoked <- false;
        `Step)
      else `Stutter

let snapshot t =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "holders:";
  Array.iteri
    (fun name s -> if s <> free then Buffer.add_string buf (Printf.sprintf " %d->s%d" name s))
    t.holders;
  let sessions =
    (* A default record (never invoked, live, holding nothing) is
       indistinguishable from an absent one; lookups create them
       lazily, so rendering them would make rejected events look like
       state changes. *)
    Sessions.fold
      (fun id s acc -> if s.invoked || s.crashed || s.holds <> [] then (id, s) :: acc else acc)
      t.sessions []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Buffer.add_string buf "\nsessions:";
  List.iter
    (fun (id, s) ->
      Buffer.add_string buf
        (Printf.sprintf " s%d[%s%s holds=%s]" id
           (if s.invoked then "i" else "-")
           (if s.crashed then "c" else "-")
           (String.concat "," (List.map string_of_int (List.sort compare s.holds)))))
    sessions;
  Buffer.contents buf

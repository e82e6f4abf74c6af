module Longlived = Renaming_longlived.Longlived
module Sample = Renaming_rng.Sample

type config = { capacity : int; epsilon : float; ttl : float; probe_cap : int }

let make_config ?(epsilon = 0.5) ?(ttl = 10.0) ?probe_cap ~capacity () =
  if capacity < 1 then invalid_arg "Lease.make_config: capacity must be >= 1";
  if epsilon <= 0. then invalid_arg "Lease.make_config: epsilon must be positive";
  if ttl <= 0. then invalid_arg "Lease.make_config: ttl must be positive";
  let slots = Longlived.namespace_for ~sessions:capacity ~epsilon in
  let probe_cap = match probe_cap with Some c -> c | None -> 64 * slots in
  if probe_cap < 0 then invalid_arg "Lease.make_config: probe_cap must be >= 0";
  { capacity; epsilon; ttl; probe_cap }

type fence = { f_name : int; f_session : int; f_epoch : int }

type t = {
  cfg : config;
  n_slots : int;
  epochs : int array;  (* bumped on every grant and every release/reclaim *)
  holders : int array;  (* session id, or -1 when free *)
  expiries : float array;  (* valid only while held *)
  grant_times : float array;
  expiry_queue : (int * int) Heap.t;  (* (name, epoch) — lazy deletion *)
  mutable n_held : int;
  mutable compactions : int;
}

let create cfg =
  let n_slots = Longlived.namespace_for ~sessions:cfg.capacity ~epsilon:cfg.epsilon in
  {
    cfg;
    n_slots;
    epochs = Array.make n_slots 0;
    holders = Array.make n_slots (-1);
    expiries = Array.make n_slots 0.;
    grant_times = Array.make n_slots 0.;
    expiry_queue = Heap.create ();
    n_held = 0;
    compactions = 0;
  }

let slots t = t.n_slots
let held t = t.n_held
let utilization t = float_of_int t.n_held /. float_of_int t.cfg.capacity

type grant = { g_fence : fence; g_probes : int; g_swept : bool }

let fence_matches t fence =
  fence.f_name >= 0 && fence.f_name < t.n_slots
  && t.holders.(fence.f_name) = fence.f_session
  && t.epochs.(fence.f_name) = fence.f_epoch

let grant_slot t ~name ~session ~now =
  t.epochs.(name) <- t.epochs.(name) + 1;
  t.holders.(name) <- session;
  t.expiries.(name) <- now +. t.cfg.ttl;
  t.grant_times.(name) <- now;
  t.n_held <- t.n_held + 1;
  let fence = { f_name = name; f_session = session; f_epoch = t.epochs.(name) } in
  Heap.push t.expiry_queue ~time:t.expiries.(name) (name, fence.f_epoch);
  fence

(* Up to [probe_cap] uniformly random probes, then a deterministic
   sweep: held < capacity <= slots, so a free slot exists and the sweep
   cannot fail.  Plain loops, so only the returned grant allocates. *)
let acquire t ~session ~now ~rng =
  if t.n_held >= t.cfg.capacity then Error `At_capacity
  else begin
    let name = ref (-1) and probes = ref 0 in
    while !name < 0 && !probes < t.cfg.probe_cap do
      let candidate = Sample.uniform_int rng t.n_slots in
      incr probes;
      if t.holders.(candidate) < 0 then name := candidate
    done;
    if !name >= 0 then
      Ok { g_fence = grant_slot t ~name:!name ~session ~now; g_probes = !probes; g_swept = false }
    else begin
      let i = ref 0 in
      while t.holders.(!i) >= 0 do
        incr i
      done;
      Ok
        {
          g_fence = grant_slot t ~name:!i ~session ~now;
          g_probes = t.cfg.probe_cap + !i + 1;
          g_swept = true;
        }
    end
  end

(* A heap entry is live iff it is the slot's *current* expiry under the
   current epoch: renewed, released and reclaimed leases all leave dead
   entries behind (lazy deletion), which compaction discards. *)
let entry_live t ~time (name, epoch) =
  t.epochs.(name) = epoch && t.holders.(name) >= 0 && t.expiries.(name) = time

let maybe_compact t =
  let sz = Heap.size t.expiry_queue in
  if sz > 32 && sz > 2 * t.n_held then begin
    Heap.compact t.expiry_queue ~live:(fun ~time v -> entry_live t ~time v);
    t.compactions <- t.compactions + 1
  end

let renew t ~fence ~now =
  if not (fence_matches t fence) then Error `Fenced
  else begin
    let expiry = now +. t.cfg.ttl in
    t.expiries.(fence.f_name) <- expiry;
    Heap.push t.expiry_queue ~time:expiry (fence.f_name, fence.f_epoch);
    maybe_compact t;
    Ok expiry
  end

let validate t ~fence = if fence_matches t fence then Ok () else Error `Fenced

let free_slot t ~name =
  t.epochs.(name) <- t.epochs.(name) + 1;
  t.holders.(name) <- -1;
  t.n_held <- t.n_held - 1

let release t ~fence ~now =
  if not (fence_matches t fence) then Error `Fenced
  else begin
    let held_for = now -. t.grant_times.(fence.f_name) in
    free_slot t ~name:fence.f_name;
    Ok held_for
  end

type reclaimed = { r_fence : fence; r_expired_at : float; r_lateness : float }

let expiry_due t ~now = Heap.due t.expiry_queue ~now ~before:(Heap.stamp t.expiry_queue)

let reclaim_expired t ~now =
  let acc = ref [] in
  while expiry_due t ~now do
    let name, epoch = Heap.take t.expiry_queue in
    (* A stale entry (the lease was renewed, released, or already
       reclaimed since it was pushed) or one renewed to a later expiry
       under the same epoch (the newer entry covers it) is skipped. *)
    if t.epochs.(name) = epoch && t.holders.(name) >= 0 && t.expiries.(name) <= now then begin
      let expired_at = t.expiries.(name) in
      let fence = { f_name = name; f_session = t.holders.(name); f_epoch = epoch } in
      free_slot t ~name;
      acc := { r_fence = fence; r_expired_at = expired_at; r_lateness = now -. expired_at } :: !acc
    end
  done;
  maybe_compact t;
  List.rev !acc

let holder t ~name =
  if name < 0 || name >= t.n_slots then None
  else if t.holders.(name) < 0 then None
  else Some t.holders.(name)

let pending_expiries t = Heap.size t.expiry_queue
let compactions t = t.compactions

type config = { queue_limit : int; request_timeout : float; high_water : float }

let make_config ?(queue_limit = 64) ?(request_timeout = 5.0) ?(high_water = 0.85) () =
  if queue_limit < 0 then invalid_arg "Admission.make_config: queue_limit must be >= 0";
  if request_timeout <= 0. then
    invalid_arg "Admission.make_config: request_timeout must be positive";
  if high_water <= 0. || high_water > 2. then
    invalid_arg "Admission.make_config: high_water must be in (0, 2]";
  { queue_limit; request_timeout; high_water }

type shed_reason = High_water | Queue_full

type waiting = { w_ticket : int; w_session : int; w_enqueued : float }

type t = {
  cfg : config;
  queue : waiting Queue.t;
  mutable next_ticket : int;
  mutable expired_total : int;
}

let create cfg = { cfg; queue = Queue.create (); next_ticket = 0; expired_total = 0 }

let depth t = Queue.length t.queue

let offer t ~session ~now ~utilization =
  if utilization >= t.cfg.high_water then Error High_water
  else if Queue.length t.queue >= t.cfg.queue_limit then Error Queue_full
  else begin
    let ticket = t.next_ticket in
    t.next_ticket <- ticket + 1;
    Queue.add { w_ticket = ticket; w_session = session; w_enqueued = now } t.queue;
    Ok ticket
  end

let head_expired t ~now =
  (not (Queue.is_empty t.queue)) && now -. (Queue.peek t.queue).w_enqueued > t.cfg.request_timeout

let pop t =
  if Queue.is_empty t.queue then invalid_arg "Admission.pop: empty queue";
  Queue.take t.queue

let pop_expired t =
  let w = pop t in
  t.expired_total <- t.expired_total + 1;
  w

let expired_total t = t.expired_total

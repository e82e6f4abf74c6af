module Obs = Renaming_obs.Obs
module Metrics = Renaming_obs.Metrics

type violation = { v_index : int; v_event : Obs_event.t; v_reason : string }

let pp_violation ppf v =
  Format.fprintf ppf "event %d (%a): %s" v.v_index Obs_event.pp v.v_event v.v_reason

type counters = { c_events : Metrics.counter; c_stutters : Metrics.counter; c_violations : Metrics.counter }

type t = {
  spec : Spec.t;
  mutable events : int;
  mutable steps : int;
  mutable stutters : int;
  mutable violations : int;
  counters : counters option;
}

let create ?obs ~config () =
  let counters =
    Option.map
      (fun o ->
        let m = Obs.metrics o in
        {
          c_events = Metrics.counter m "refine/events";
          c_stutters = Metrics.counter m "refine/stutters";
          c_violations = Metrics.counter m "refine/violations";
        })
      obs
  in
  {
    spec = Spec.create config;
    events = 0;
    steps = 0;
    stutters = 0;
    violations = 0;
    counters;
  }

let observe t ev =
  let index = t.events in
  t.events <- t.events + 1;
  Option.iter (fun c -> Metrics.incr c.c_events) t.counters;
  match Spec.apply t.spec ev with
  | `Step ->
      t.steps <- t.steps + 1;
      `Ok
  | `Stutter ->
      t.stutters <- t.stutters + 1;
      Option.iter (fun c -> Metrics.incr c.c_stutters) t.counters;
      `Ok
  | `Reject reason ->
      t.violations <- t.violations + 1;
      Option.iter (fun c -> Metrics.incr c.c_violations) t.counters;
      `Violation { v_index = index; v_event = ev; v_reason = reason }

let stutter t =
  t.events <- t.events + 1;
  t.stutters <- t.stutters + 1;
  Option.iter
    (fun c ->
      Metrics.incr c.c_events;
      Metrics.incr c.c_stutters)
    t.counters

let spec t = t.spec
let events t = t.events
let steps t = t.steps
let stutters t = t.stutters
let violations t = t.violations

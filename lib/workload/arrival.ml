module Adversary = Renaming_sched.Adversary

type pattern =
  | All_at_once
  | Staggered of { gap : int }
  | Bursty of { bursts : int; gap : int }
  | Explicit of int array

let times pattern ~n =
  match pattern with
  | All_at_once -> Array.make n 0
  | Staggered { gap } ->
    if gap < 0 then invalid_arg "Arrival.times: negative gap";
    Array.init n (fun i -> i * gap)
  | Bursty { bursts; gap } ->
    if bursts < 1 then invalid_arg "Arrival.times: bursts must be >= 1";
    let per_burst = max 1 (n / bursts) in
    Array.init n (fun i -> min (bursts - 1) (i / per_burst) * gap)
  | Explicit arr ->
    if Array.length arr <> n then invalid_arg "Arrival.times: wrong array length";
    Array.copy arr

let adversary pattern ~n ~base =
  let arrivals = times pattern ~n in
  {
    Adversary.name = base.Adversary.name ^ "+arrivals";
    decide =
      (fun view ->
        let arrived pid = arrivals.(pid) <= view.Adversary.time in
        (* Fast path: every runnable process has arrived. *)
        let all_arrived =
          let ok = ref true in
          (try
             for i = 0 to view.Adversary.runnable_count - 1 do
               if not (arrived (view.Adversary.runnable_nth i)) then begin
                 ok := false;
                 raise Exit
               end
             done
           with Exit -> ());
          !ok
        in
        if all_arrived then base.Adversary.decide view
        else begin
          (* Present the base adversary with the arrived subset. *)
          let subset = ref [] in
          for i = view.Adversary.runnable_count - 1 downto 0 do
            let pid = view.Adversary.runnable_nth i in
            if arrived pid then subset := pid :: !subset
          done;
          match !subset with
          | [] ->
            (* Nobody has arrived: step the earliest future arrival (the
               clock only advances with steps, so this models idling). *)
            let best = ref (view.Adversary.runnable_nth 0) in
            for i = 1 to view.Adversary.runnable_count - 1 do
              let pid = view.Adversary.runnable_nth i in
              if arrivals.(pid) < arrivals.(!best) then best := pid
            done;
            Adversary.Schedule !best
          | subset ->
            let arr = Array.of_list subset in
            (* A fresh view: the executor's answers to [first_doomed] and
               [min_runnable] are about the whole runnable set. *)
            let sub_view =
              Adversary.scan_view ~time:view.Adversary.time ~runnable_count:(Array.length arr)
                ~runnable_nth:(fun i -> arr.(i))
                ~is_runnable:(fun pid -> arrived pid && view.Adversary.is_runnable pid)
                ~is_crashed:view.Adversary.is_crashed ~pending_op:view.Adversary.pending_op
                ~memory:view.Adversary.memory
            in
            base.Adversary.decide sub_view
        end);
  }

type answer = Pending | Won_bit | Lost_bit

type t = {
  base : int;
  tau : int;
  device : Counting_device.t;
  mutable queue : (int * int) list;  (* (pid, bit), newest first *)
  answers : (int, answer) Hashtbl.t;  (* pid -> resolved answer *)
}

let create ?rule ~base ~tau ~width () =
  if base < 0 then invalid_arg "Tau_register.create: negative base";
  if tau < 1 || tau > width then invalid_arg "Tau_register.create: tau out of range";
  {
    base;
    tau;
    device = Counting_device.create ?rule ~width ~threshold:tau ();
    queue = [];
    answers = Hashtbl.create 16;
  }

let base t = t.base
let tau t = t.tau
let device t = t.device

let name_slot t k =
  if k < 0 || k >= t.tau then invalid_arg "Tau_register.name_slot: slot out of range";
  t.base + k

let submit t ~pid ~bit =
  Hashtbl.remove t.answers pid;
  t.queue <- (pid, bit) :: t.queue

let poll t ~pid = match Hashtbl.find t.answers pid with a -> a | exception Not_found -> Pending

let run_cycle t ~resolve_order =
  match t.queue with
  | [] -> ()
  | queue ->
    let requests = Array.of_list (List.rev queue) in
    t.queue <- [];
    resolve_order requests;
    let outcomes = Counting_device.tick t.device ~requests in
    Array.iteri
      (fun i (pid, _bit) ->
        let answer =
          match outcomes.(i) with
          | Counting_device.Confirmed -> Won_bit
          | Counting_device.Lost | Counting_device.Revoked -> Lost_bit
        in
        Hashtbl.replace t.answers pid answer)
      requests

let pending_count t = List.length t.queue

let accepted_count t = Counting_device.accepted_count t.device

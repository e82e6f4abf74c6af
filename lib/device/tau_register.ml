type answer = Pending | Won_bit | Lost_bit

(* The queue of the next cycle is three parallel buffers, in submission
   order; answers live in an open-addressed table from pid to answer
   (linear probing, [-1] marks a free slot).  Buffers only grow, so once
   they have reached a register's peak load, submit, poll and a cycle
   allocate nothing. *)
type t = {
  base : int;
  tau : int;
  device : Counting_device.t;
  mutable q_pid : int array;
  mutable q_bit : int array;
  mutable q_outcome : Counting_device.outcome array;
  mutable q_len : int;
  mutable keys : int array;  (* capacity a power of two *)
  mutable answers : answer array;
  mutable answered : int;  (* occupied slots *)
}

let create ?rule ~base ~tau ~width () =
  if base < 0 then invalid_arg "Tau_register.create: negative base";
  if tau < 1 || tau > width then invalid_arg "Tau_register.create: tau out of range";
  {
    base;
    tau;
    device = Counting_device.create ?rule ~width ~threshold:tau ();
    q_pid = Array.make 8 0;
    q_bit = Array.make 8 0;
    q_outcome = Array.make 8 Counting_device.Lost;
    q_len = 0;
    keys = Array.make 16 (-1);
    answers = Array.make 16 Pending;
    answered = 0;
  }

let base t = t.base
let tau t = t.tau
let device t = t.device

let name_slot t k =
  if k < 0 || k >= t.tau then invalid_arg "Tau_register.name_slot: slot out of range";
  t.base + k

(* The slot holding [pid], or the free slot where it belongs. *)
let slot keys pid =
  let mask = Array.length keys - 1 in
  let i = ref (pid land mask) in
  while keys.(!i) <> pid && keys.(!i) <> -1 do
    i := (!i + 1) land mask
  done;
  !i

let grow_answers t =
  let keys = t.keys and answers = t.answers in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap (-1);
  t.answers <- Array.make cap Pending;
  Array.iteri
    (fun i pid ->
      if pid >= 0 then begin
        let j = slot t.keys pid in
        t.keys.(j) <- pid;
        t.answers.(j) <- answers.(i)
      end)
    keys

let set_answer t pid a =
  let i = slot t.keys pid in
  if t.keys.(i) = pid then t.answers.(i) <- a
  else begin
    t.keys.(i) <- pid;
    t.answers.(i) <- a;
    t.answered <- t.answered + 1;
    if 2 * t.answered > Array.length t.keys then grow_answers t
  end

let grow_queue t =
  let cap = 2 * Array.length t.q_pid in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.q_len;
    b
  in
  t.q_pid <- extend t.q_pid 0;
  t.q_bit <- extend t.q_bit 0;
  t.q_outcome <- extend t.q_outcome Counting_device.Lost

let submit t ~pid ~bit =
  set_answer t pid Pending;
  if t.q_len = Array.length t.q_pid then grow_queue t;
  t.q_pid.(t.q_len) <- pid;
  t.q_bit.(t.q_len) <- bit;
  t.q_len <- t.q_len + 1

let poll t ~pid =
  let i = slot t.keys pid in
  if t.keys.(i) = pid then t.answers.(i) else Pending

let run_cycle t =
  let len = t.q_len in
  if len > 0 then begin
    t.q_len <- 0;
    Counting_device.tick t.device ~bits:t.q_bit ~len ~outcomes:t.q_outcome;
    for i = 0 to len - 1 do
      set_answer t t.q_pid.(i)
        (match t.q_outcome.(i) with
        | Counting_device.Confirmed -> Won_bit
        | Counting_device.Lost | Counting_device.Revoked -> Lost_bit)
    done
  end

let pending_count t = t.q_len

let accepted_count t = Counting_device.accepted_count t.device

module Device = Renaming_device.Counting_device

type t = { device : Device.t; mutable leader : int option }

let create () = { device = Device.create ~width:2 ~threshold:1 (); leader = None }

let compete t ~pid =
  if Device.is_full t.device then false
  else begin
    let outcomes = Array.make 2 Device.Lost in
    Device.tick t.device ~bits:[| 0; 1 |] ~len:2 ~outcomes;
    let won = Array.exists (fun o -> o = Device.Confirmed) outcomes in
    if won && t.leader = None then t.leader <- Some pid;
    won
  end

let leader t = t.leader

(* Counting-device walkthrough: watch the clock-cycle algorithm of
   sec. II-C (lines 1-14) process a burst of requests bit by bit,
   including the discard of supernumerary winners.

   Run with:  dune exec examples/device_demo.exe *)

module Device = Renaming_device.Counting_device
module Word = Renaming_bitops.Word

let width = 12
let tau = 4

let pp_reg label value =
  Format.printf "    %-8s %a  (popcount %d)@." label (Word.pp ~width) value (Word.popcount value)

let show_cycle device label requests =
  Format.printf "@.cycle %d: %s@." (Device.cycles device + 1) label;
  Format.printf "  requests: %s@."
    (String.concat ", "
       (Array.to_list (Array.map (fun (pid, bit) -> Printf.sprintf "p%d->bit%d" pid bit) requests)));
  let len = Array.length requests in
  let outcomes = Array.make len Device.Lost in
  Device.tick device ~bits:(Array.map snd requests) ~len ~outcomes;
  Array.iteri
    (fun i (pid, bit) ->
      let verdict =
        match outcomes.(i) with
        | Device.Confirmed -> "CONFIRMED"
        | Device.Revoked -> "revoked (over threshold)"
        | Device.Lost -> "lost (bit taken)"
      in
      Format.printf "    p%d requesting bit %-2d -> %s@." pid bit verdict)
    requests;
  pp_reg "in_reg" (Device.in_reg device);
  pp_reg "out_reg" (Device.out_reg device);
  Format.printf "    accepted %d/%d, %s@." (Device.accepted_count device) tau
    (if Device.is_full device then "device FULL" else
       Printf.sprintf "capacity left %d" (Device.remaining_capacity device));
  match Device.check_invariants device with
  | Ok () -> Format.printf "    invariants: ok@."
  | Error msg -> Format.printf "    invariants: VIOLATED (%s)@." msg

let () =
  Format.printf "counting device: width = %d TAS bits, threshold tau = %d@." width tau;
  Format.printf "(the tight-renaming algorithm uses width 2 log n, tau = log n)@.";
  let device = Device.create ~rule:Device.Literal ~width ~threshold:tau () in
  (* Cycle 1: light load, everyone fits. *)
  show_cycle device "two requests, no contention" [| (0, 2); (1, 7) |];
  (* Cycle 2: a same-bit race. *)
  show_cycle device "three processes race on bit 5" [| (2, 5); (3, 5); (4, 5) |];
  (* Cycle 3: more winners than remaining capacity -> the shifting
     discard procedure unsets the highest-indexed new bits. *)
  show_cycle device "four fresh bits but only one slot left" [| (5, 0); (6, 3); (7, 9); (8, 11) |];
  (* Cycle 4: the device is full; everything fails. *)
  show_cycle device "full device rejects all" [| (9, 1); (10, 10) |];
  Format.printf
    "@.The winner set is decided by the paper's util_reg shifting procedure: shift@.\
     out_reg xor in_reg left until exactly 'allowed' bits remain with a 1 in the@.\
     first position, then shift back — i.e. keep the lowest-indexed new bits.@."

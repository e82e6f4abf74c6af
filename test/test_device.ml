(* Tests for the counting device (the paper's lines 1-14) and the
   tau-register protocol layer. *)

module Device = Renaming_device.Counting_device
module Tau = Renaming_device.Tau_register
module Word = Renaming_bitops.Word

let check = Alcotest.check

let outcome =
  Alcotest.testable
    (fun fmt -> function
      | Device.Lost -> Format.fprintf fmt "Lost"
      | Device.Confirmed -> Format.fprintf fmt "Confirmed"
      | Device.Revoked -> Format.fprintf fmt "Revoked")
    ( = )

(* The device reads a buffer of bits and writes into a buffer of
   outcomes the caller keeps.  The tests state their cycles as
   [(pid, bit)] requests, the shape of the paper's pseudocode, and read
   the outcomes back positionally; the pid is only a label. *)
let tick d ~requests =
  let len = Array.length requests in
  let outcomes = Array.make len Device.Lost in
  Device.tick d ~bits:(Array.map snd requests) ~len ~outcomes;
  outcomes

let test_create_validation () =
  Alcotest.check_raises "bad width" (Invalid_argument "Counting_device.create: bad width")
    (fun () -> ignore (Device.create ~width:0 ~threshold:1 ()));
  Alcotest.check_raises "bad threshold" (Invalid_argument "Counting_device.create: bad threshold")
    (fun () -> ignore (Device.create ~width:8 ~threshold:9 ()))

let test_single_request_wins () =
  let d = Device.create ~width:8 ~threshold:4 () in
  let outcomes = tick d ~requests:[| (0, 3) |] in
  check outcome "confirmed" Device.Confirmed outcomes.(0);
  check Alcotest.int "accepted" 1 (Device.accepted_count d);
  check Alcotest.bool "in=out" true (Device.in_reg d = Device.out_reg d)

let test_same_bit_race () =
  let d = Device.create ~width:8 ~threshold:4 () in
  let outcomes = tick d ~requests:[| (0, 3); (1, 3); (2, 3) |] in
  check outcome "first wins" Device.Confirmed outcomes.(0);
  check outcome "second loses" Device.Lost outcomes.(1);
  check outcome "third loses" Device.Lost outcomes.(2);
  check Alcotest.int "one accepted" 1 (Device.accepted_count d)

let test_set_bit_rejects_later_cycles () =
  let d = Device.create ~width:8 ~threshold:4 () in
  ignore (tick d ~requests:[| (0, 3) |]);
  let outcomes = tick d ~requests:[| (1, 3) |] in
  check outcome "taken bit loses" Device.Lost outcomes.(0)

let test_threshold_enforced_within_cycle () =
  let d = Device.create ~width:8 ~threshold:2 () in
  (* Four distinct free bits requested; only 2 may survive. *)
  let outcomes = tick d ~requests:[| (0, 1); (1, 4); (2, 6); (3, 7) |] in
  let confirmed = Array.fold_left (fun a o -> if o = Device.Confirmed then a + 1 else a) 0 outcomes in
  let revoked = Array.fold_left (fun a o -> if o = Device.Revoked then a + 1 else a) 0 outcomes in
  check Alcotest.int "two confirmed" 2 confirmed;
  check Alcotest.int "two revoked" 2 revoked;
  check Alcotest.int "accepted = tau" 2 (Device.accepted_count d);
  check Alcotest.bool "full" true (Device.is_full d)

let test_discard_keeps_lowest_bits () =
  let d = Device.create ~width:8 ~threshold:2 () in
  ignore (tick d ~requests:[| (0, 6); (1, 2); (2, 5) |]);
  (* New bits {2,5,6}, allowed 2: survivors must be bits 2 and 5. *)
  check Alcotest.bool "bit 2 kept" true (Word.test_bit (Device.out_reg d) 2);
  check Alcotest.bool "bit 5 kept" true (Word.test_bit (Device.out_reg d) 5);
  check Alcotest.bool "bit 6 revoked" false (Word.test_bit (Device.out_reg d) 6)

let test_old_bits_never_revoked () =
  let d = Device.create ~width:8 ~threshold:2 () in
  ignore (tick d ~requests:[| (0, 7) |]);
  (* Over-subscribe with lower-indexed bits; the old bit 7 must stay. *)
  ignore (tick d ~requests:[| (1, 0); (2, 1); (3, 2) |]);
  check Alcotest.bool "old bit 7 kept" true (Word.test_bit (Device.out_reg d) 7);
  check Alcotest.int "tau respected" 2 (Device.accepted_count d)

let test_full_device_rejects_everything () =
  let d = Device.create ~width:8 ~threshold:1 () in
  ignore (tick d ~requests:[| (0, 0) |]);
  let outcomes = tick d ~requests:[| (1, 1); (2, 2) |] in
  Array.iter (fun o -> check Alcotest.bool "no win on full device" true (o <> Device.Confirmed)) outcomes;
  check Alcotest.int "still one" 1 (Device.accepted_count d)

let test_empty_tick () =
  let d = Device.create ~width:8 ~threshold:4 () in
  let outcomes = tick d ~requests:[||] in
  check Alcotest.int "no outcomes" 0 (Array.length outcomes);
  check Alcotest.int "cycle counted" 1 (Device.cycles d)

let test_bad_bit_index () =
  let d = Device.create ~width:8 ~threshold:4 () in
  Alcotest.check_raises "bit out of range"
    (Invalid_argument "Counting_device.tick: bit out of range") (fun () ->
      ignore (tick d ~requests:[| (0, 8) |]))

let test_invariants_hold_under_load () =
  let rng = Renaming_rng.Xoshiro.create 1234L in
  List.iter
    (fun (width, threshold) ->
      let lit = Device.create ~rule:Device.Literal ~width ~threshold () in
      let refd = Device.create ~rule:Device.Reference ~width ~threshold () in
      for _ = 1 to 300 do
        let count = Renaming_rng.Sample.uniform_int rng (2 * width) in
        let requests =
          Array.init count (fun i -> (i, Renaming_rng.Sample.uniform_int rng width))
        in
        let o1 = tick lit ~requests in
        let o2 = tick refd ~requests in
        check Alcotest.(array outcome) "literal = reference outcomes" o2 o1;
        (match Device.check_invariants lit with
        | Ok () -> ()
        | Error msg -> Alcotest.fail ("literal invariant: " ^ msg));
        check Alcotest.int "registers agree" (Device.out_reg refd) (Device.out_reg lit)
      done;
      check Alcotest.bool "eventually full" true (Device.accepted_count lit <= threshold))
    [ (4, 2); (8, 3); (16, 8); (20, 10); (62, 31) ]

let test_tau_register_protocol () =
  let tau = Tau.create ~base:100 ~tau:2 ~width:4 () in
  check Alcotest.int "base" 100 (Tau.base tau);
  check Alcotest.int "slot" 101 (Tau.name_slot tau 1);
  Tau.submit tau ~pid:0 ~bit:1;
  Tau.submit tau ~pid:1 ~bit:1;
  check Alcotest.int "pending" 2 (Tau.pending_count tau);
  check Alcotest.bool "pending answer" true (Tau.poll tau ~pid:0 = Tau.Pending);
  Tau.run_cycle tau;
  check Alcotest.bool "pid 0 won" true (Tau.poll tau ~pid:0 = Tau.Won_bit);
  check Alcotest.bool "pid 1 lost" true (Tau.poll tau ~pid:1 = Tau.Lost_bit);
  check Alcotest.int "accepted" 1 (Tau.accepted_count tau)

let test_tau_register_capacity () =
  let tau = Tau.create ~base:0 ~tau:2 ~width:6 () in
  List.iter (fun (pid, bit) -> Tau.submit tau ~pid ~bit) [ (0, 0); (1, 1); (2, 2); (3, 3) ];
  Tau.run_cycle tau;
  let winners =
    List.filter (fun pid -> Tau.poll tau ~pid = Tau.Won_bit) [ 0; 1; 2; 3 ]
  in
  check Alcotest.int "exactly tau winners" 2 (List.length winners)

let test_tau_register_resolve_order () =
  (* Same-cycle requests resolve in submission order, which the
     adversary controls by when it schedules each submit: pid 1 submits
     first and wins the contended bit, whatever the pids. *)
  let tau = Tau.create ~base:0 ~tau:2 ~width:4 () in
  Tau.submit tau ~pid:1 ~bit:2;
  Tau.submit tau ~pid:0 ~bit:2;
  Tau.run_cycle tau;
  check Alcotest.bool "first submitter won" true (Tau.poll tau ~pid:1 = Tau.Won_bit);
  check Alcotest.bool "second submitter lost" true (Tau.poll tau ~pid:0 = Tau.Lost_bit)

(* The caller's buffers are read and written only up to [len], so one
   pair serves every cycle; a [len] beyond either buffer is rejected. *)
let test_tick_buffer_contract () =
  let d = Device.create ~width:8 ~threshold:4 () in
  let bits = [| 1; 1; 5; 7 |] and outcomes = Array.make 4 Device.Revoked in
  Device.tick d ~bits ~len:2 ~outcomes;
  check Alcotest.(array outcome) "first two written, the rest untouched"
    [| Device.Confirmed; Device.Lost; Device.Revoked; Device.Revoked |]
    outcomes;
  check Alcotest.bool "bit 5 not requested" false (Word.test_bit (Device.out_reg d) 5);
  Alcotest.check_raises "len beyond the buffers"
    (Invalid_argument "Counting_device.tick: len exceeds a buffer") (fun () ->
      Device.tick d ~bits ~len:5 ~outcomes)

let test_tau_slot_bounds () =
  let tau = Tau.create ~base:0 ~tau:2 ~width:4 () in
  Alcotest.check_raises "slot out of range"
    (Invalid_argument "Tau_register.name_slot: slot out of range") (fun () ->
      ignore (Tau.name_slot tau 2))

let qcheck_device_never_exceeds_tau =
  QCheck.Test.make ~count:200 ~name:"device never accepts more than tau bits"
    QCheck.(triple (int_range 2 20) small_int (list_of_size (Gen.int_range 0 60) (int_bound 19)))
    (fun (width, seed, bits) ->
      let threshold = 1 + (abs seed mod width) in
      let d = Device.create ~width ~threshold () in
      List.iteri
        (fun i bit -> ignore (tick d ~requests:[| (i, bit mod width) |]))
        bits;
      Device.accepted_count d <= threshold)

let qcheck_literal_equals_reference =
  QCheck.Test.make ~count:200 ~name:"literal discard equals reference on random batches"
    QCheck.(
      triple (int_range 2 24) (int_bound 1000)
        (list_of_size (Gen.int_range 1 6) (list_of_size (Gen.int_range 0 30) (int_bound 23))))
    (fun (width, tseed, batches) ->
      let threshold = 1 + (tseed mod width) in
      let lit = Device.create ~rule:Device.Literal ~width ~threshold () in
      let refd = Device.create ~rule:Device.Reference ~width ~threshold () in
      List.for_all
        (fun batch ->
          let requests = Array.of_list (List.mapi (fun i b -> (i, b mod width)) batch) in
          let o1 = tick lit ~requests in
          let o2 = tick refd ~requests in
          o1 = o2 && Device.out_reg lit = Device.out_reg refd)
        batches)

let tests =
  [
    ( "device",
      [
        Alcotest.test_case "create validation" `Quick test_create_validation;
        Alcotest.test_case "single request" `Quick test_single_request_wins;
        Alcotest.test_case "same-bit race" `Quick test_same_bit_race;
        Alcotest.test_case "set bit rejects" `Quick test_set_bit_rejects_later_cycles;
        Alcotest.test_case "threshold in cycle" `Quick test_threshold_enforced_within_cycle;
        Alcotest.test_case "discard keeps lowest" `Quick test_discard_keeps_lowest_bits;
        Alcotest.test_case "old bits kept" `Quick test_old_bits_never_revoked;
        Alcotest.test_case "full device rejects" `Quick test_full_device_rejects_everything;
        Alcotest.test_case "empty tick" `Quick test_empty_tick;
        Alcotest.test_case "bad bit index" `Quick test_bad_bit_index;
        Alcotest.test_case "invariants under load" `Quick test_invariants_hold_under_load;
        Alcotest.test_case "tau protocol" `Quick test_tau_register_protocol;
        Alcotest.test_case "tau capacity" `Quick test_tau_register_capacity;
        Alcotest.test_case "tau resolve order" `Quick test_tau_register_resolve_order;
        Alcotest.test_case "tick buffer contract" `Quick test_tick_buffer_contract;
        Alcotest.test_case "tau slot bounds" `Quick test_tau_slot_bounds;
        QCheck_alcotest.to_alcotest qcheck_device_never_exceeds_tau;
        QCheck_alcotest.to_alcotest qcheck_literal_equals_reference;
      ] );
  ]

(* --- appended: multi-cycle property tests with adversarial resolve
   orders --- *)

let qcheck_tau_register_capacity_across_cycles =
  QCheck.Test.make ~count:100 ~name:"tau register never confirms more than tau winners, ever"
    QCheck.(triple small_int (int_range 1 10) (list_of_size (Gen.int_range 1 8) (list_of_size (Gen.int_range 0 12) (int_bound 30))))
    (fun (seed, tau0, cycles) ->
      let width = 2 * (((tau0 - 1) mod 10) + 1 + 5) in
      let tau = min (((tau0 - 1) mod 10) + 1) width in
      let reg = Tau.create ~base:0 ~tau ~width () in
      let rng = Renaming_rng.Xoshiro.create (Int64.of_int seed) in
      let next_pid = ref 0 in
      List.iter
        (fun batch ->
          (* Same-cycle requests race in submission order, so an
             adversarial order is a shuffled submission. *)
          let batch = Array.of_list (List.mapi (fun i bit -> (!next_pid + i, bit mod width)) batch) in
          next_pid := !next_pid + Array.length batch;
          Renaming_rng.Sample.shuffle_in_place rng batch;
          Array.iter (fun (pid, bit) -> Tau.submit reg ~pid ~bit) batch;
          Tau.run_cycle reg)
        cycles;
      Tau.accepted_count reg <= tau)

let appended_device_tests =
  [
    ( "device-extra",
      [ QCheck_alcotest.to_alcotest qcheck_tau_register_capacity_across_cycles ] );
  ]

let tests = tests @ appended_device_tests

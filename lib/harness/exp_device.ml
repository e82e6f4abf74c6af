module Device = Renaming_device.Counting_device
module Sample = Renaming_rng.Sample
module Stream = Renaming_rng.Stream

(* Drive one device with a random request load and check its contract
   after every cycle; returns (cycles, confirmed, revoked, violations,
   diverged-from-reference). *)
let drive ~rng ~width ~threshold ~cycles ~load =
  let literal = Device.create ~rule:Device.Literal ~width ~threshold () in
  let reference = Device.create ~rule:Device.Reference ~width ~threshold () in
  let confirmed = ref 0 and revoked = ref 0 and violations = ref 0 and diverged = ref 0 in
  for _ = 1 to cycles do
    let len = Sample.uniform_int rng (load + 1) in
    let bits = Array.init len (fun _ -> Sample.uniform_int rng width) in
    let outcomes = Array.make len Device.Lost in
    Device.tick literal ~bits ~len ~outcomes;
    Device.tick reference ~bits ~len ~outcomes:(Array.make len Device.Lost);
    Array.iter
      (function
        | Device.Confirmed -> incr confirmed
        | Device.Revoked -> incr revoked
        | Device.Lost -> ())
      outcomes;
    (match Device.check_invariants literal with Ok () -> () | Error _ -> incr violations);
    (match Device.check_invariants reference with Ok () -> () | Error _ -> incr violations);
    if Device.out_reg literal <> Device.out_reg reference then incr diverged
  done;
  (!confirmed, !revoked, !violations, !diverged)

let t10 scale =
  let table =
    Table.create ~title:"T10: counting device contract (lines 1-14 of sec. II-C)"
      ~columns:
        [
          "width"; "tau"; "cycles"; "confirmed"; "revoked"; "accepted<=tau"; "violations";
          "literal=reference";
        ]
  in
  let cycles = match scale with Runcfg.Quick -> 200 | Runcfg.Full -> 2000 in
  let stream = Stream.create 0xDE71CEL in
  List.iter
    (fun (width, threshold) ->
      let rng = Stream.fork_named stream ~name:(Printf.sprintf "dev-%d-%d" width threshold) in
      let confirmed, revoked, violations, diverged =
        drive ~rng ~width ~threshold ~cycles ~load:(width * 2)
      in
      Table.add_row table
        [
          Table.cell_int width;
          Table.cell_int threshold;
          Table.cell_int cycles;
          Table.cell_int confirmed;
          Table.cell_int revoked;
          Table.cell_bool (confirmed <= threshold);
          Table.cell_int violations;
          Table.cell_bool (diverged = 0);
        ])
    [ (8, 4); (16, 8); (20, 10); (32, 16); (40, 20); (62, 31); (62, 5) ];
  Table.add_note table
    "the paper's shifting discard procedure (xor/shift/popcnt/bt) must equal 'keep the lowest-indexed new bits' on every cycle";
  table

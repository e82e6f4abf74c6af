(* The 256-bit state lives in 32 bytes rather than four mutable [int64]
   fields: a field store boxes its [int64], while [Bytes.set_int64_ne]
   writes raw machine words, so a step runs on unboxed locals and
   allocates nothing. *)
type t = Bytes.t

(* Word [i] is the [i+1]-th output of a SplitMix64 generator seeded
   with [seed], which is [mix (seed + (i+1) * gamma)]: computed in
   place, the seeding allocates nothing but the state. *)
let[@inline] create seed =
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_ne t (8 * i)
      (Splitmix64.mix (Int64.add seed (Int64.mul (Int64.of_int (i + 1)) Splitmix64.golden_gamma)))
  done;
  t

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step: advance the state in place and return the
   output.  Inlined into [next], [next_int63] and [next_bits53], so the
   output stays unboxed unless [next] returns it as an [int64]. *)
let[@inline] step t =
  let s0 = Bytes.get_int64_ne t 0 in
  let s1 = Bytes.get_int64_ne t 8 in
  let s2 = Bytes.get_int64_ne t 16 in
  let s3 = Bytes.get_int64_ne t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  Bytes.set_int64_ne t 0 (Int64.logxor s0 s3);
  Bytes.set_int64_ne t 8 (Int64.logxor s1 s2);
  Bytes.set_int64_ne t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  Bytes.set_int64_ne t 24 (rotl s3 45);
  result

let next t = step t

let next_int63 t = Int64.to_int (Int64.shift_right_logical (step t) 2)

let next_bits53 t = Int64.to_int (Int64.shift_right_logical (step t) 11)

let jump_table =
  [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump t =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun jump_word ->
      for b = 0 to 63 do
        if Int64.logand jump_word (Int64.shift_left 1L b) <> 0L then
          for i = 0 to 3 do
            let o = 8 * i in
            Bytes.set_int64_ne acc o
              (Int64.logxor (Bytes.get_int64_ne acc o) (Bytes.get_int64_ne t o))
          done;
        ignore (step t)
      done)
    jump_table;
  Bytes.blit acc 0 t 0 32

let split t =
  let fresh = copy t in
  jump t;
  fresh

(* Process-level measurements and helpers shared by every workload. *)

module Stream = Renaming_rng.Stream
module Xoshiro = Renaming_rng.Xoshiro

let now_s () = float_of_int (Span.now_ns ()) /. 1e9

(* Words allocated so far (minor + direct major, promotions not counted
   twice): a pure function of the code path, so it repeats exactly.
   [Gc.counters]' minor count only advances at minor collections, so
   the exact [Gc.minor_words] stands in for it. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let collections () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1e6
let peak_heap_mb () = mb_of_words (Gc.quick_stat ()).Gc.top_heap_words

(* Per-episode input seeds, a pure function of the run's [--seed]. *)
let episode_seed ~seed ~episode ~lane =
  Xoshiro.next (Stream.fork (Stream.create seed) ~index:((episode * 8) + lane))

let sorted_floats xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (max 0 (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = quantile (sorted_floats xs) 0.5

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* One measured unit of work.  [ops] is what the throughput counts: a
   process that obtained a name, or a session that was granted one. *)
type episode = {
  ops : int;
  attempted : int;
  failed : int;  (** unnamed processes / abandoned sessions *)
  violations : string list;  (** correctness-gate failures, by kind *)
  wall_s : float;
  words : float;
}

(* Time [f] and count what it allocates; [f] returns the episode's
   counts. *)
let measure f =
  let w0 = alloc_words () in
  let t0 = Span.now_ns () in
  let ops, attempted, failed, violations = f () in
  let t1 = Span.now_ns () in
  let w1 = alloc_words () in
  { ops; attempted; failed; violations; wall_s = float_of_int (t1 - t0) /. 1e9; words = w1 -. w0 }

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

(* ---- machine-speed yardstick ---- *)

(* The shared 2-vCPU box these figures were tuned on changes speed by up
   to 2x within seconds as other tenants come and go, and the workloads
   slow down with it.  [yardstick] times a fixed loop — branchy,
   allocation-free, over a 32 KB table it first pulls into cache, so the
   program's heap neither touches it nor is touched by it — whose
   duration tracks that speed.  Timing it just before and just after a
   measured interval and scaling the interval by [yardstick_ref_s / mean]
   expresses the interval in reference seconds: seconds on the box when
   the loop takes [yardstick_ref_s], its usual speed during tuning. *)
let yardstick_table = Array.make 4096 0
let yardstick_ref_s = 0.002

let yardstick () =
  let t = yardstick_table in
  let acc = ref 0 in
  for i = 0 to Array.length t - 1 do
    acc := !acc + t.(i)
  done;
  let t0 = Span.now_ns () in
  for i = 1 to 500_000 do
    let key = (i * 7919) land 4095 in
    let v = t.(key) in
    if v land 3 = 0 then t.(key) <- v + i else acc := !acc + v;
    let j = (v lxor i) land 4095 in
    if t.(j) > !acc then acc := !acc lxor j
  done;
  ignore (Sys.opaque_identity !acc);
  float_of_int (Span.now_ns () - t0) /. 1e9

(* [f ()]'s result, its wall time, and that time in reference seconds. *)
let reference_time f =
  let k0 = yardstick () in
  let t0 = Span.now_ns () in
  let r = f () in
  let wall = float_of_int (Span.now_ns () - t0) /. 1e9 in
  let k1 = yardstick () in
  (r, wall, wall *. yardstick_ref_s *. 2. /. (k0 +. k1))

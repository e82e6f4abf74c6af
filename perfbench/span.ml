(* Wall-clock spans recorded from outside the library, around the
   benchmark's own calls into a layer's public functions.

   Every span feeds an aggregate per span name (count, total time and a
   log-linear duration histogram, so p50/p99 need no sample arrays), and
   the first [capacity] spans are also kept verbatim — name, start, end,
   causing span and request id — and written as a Chrome trace when the
   benchmark exits.  Nothing here allocates per span. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Log-linear buckets: values below 64 are exact, above that each power
   of two is split into 32 sub-buckets (about 3% resolution). *)
let sub_bits = 5
let linear_limit = 64
let buckets = 64 * (1 lsl sub_bits)

let rec log2 v = if v <= 1 then 0 else 1 + log2 (v lsr 1)

let bucket_of v =
  if v < linear_limit then max v 0
  else
    let e = log2 v in
    let sub = (v lsr (e - sub_bits)) land ((1 lsl sub_bits) - 1) in
    linear_limit + ((e - 6) lsl sub_bits) + sub

let bucket_mid b =
  if b < linear_limit then float_of_int b
  else
    let e = ((b - linear_limit) lsr sub_bits) + 6 in
    let sub = (b - linear_limit) land ((1 lsl sub_bits) - 1) in
    let lo = (1 lsl e) + (sub lsl (e - sub_bits)) in
    float_of_int lo +. (float_of_int (1 lsl (e - sub_bits)) /. 2.)

let capacity = 20_000

type agg = { a_name : string; mutable count : int; mutable total_ns : int; hist : int array }

type t = {
  names : agg array;
  mutable stored : int;
  s_name : int array;
  s_start : int array;
  s_stop : int array;
  s_parent : int array;
  s_rid : int array;
}

let create names =
  {
    names =
      Array.of_list
        (List.map (fun n -> { a_name = n; count = 0; total_ns = 0; hist = Array.make buckets 0 }) names);
    stored = 0;
    s_name = Array.make capacity 0;
    s_start = Array.make capacity 0;
    s_stop = Array.make capacity 0;
    s_parent = Array.make capacity (-1);
    s_rid = Array.make capacity (-1);
  }

let id t name =
  let rec go i =
    if i >= Array.length t.names then invalid_arg ("Span.id: unknown span " ^ name)
    else if t.names.(i).a_name = name then i
    else go (i + 1)
  in
  go 0

(* [enter t ~id ~start ~parent ~rid] reserves the span's slot and
   returns its index (usable as a child's [parent]), or -1 once the
   buffer is full; [leave] closes it and feeds the aggregate. *)
let enter t ~id ~start ~parent ~rid =
  if t.stored < capacity then begin
    let i = t.stored in
    t.s_name.(i) <- id;
    t.s_start.(i) <- start;
    t.s_stop.(i) <- start;
    t.s_parent.(i) <- parent;
    t.s_rid.(i) <- rid;
    t.stored <- i + 1;
    i
  end
  else -1

let leave t ~id ~slot ~start =
  let stop = now_ns () in
  let a = t.names.(id) in
  let d = stop - start in
  a.count <- a.count + 1;
  a.total_ns <- a.total_ns + d;
  let b = bucket_of d in
  a.hist.(b) <- a.hist.(b) + 1;
  if slot >= 0 then t.s_stop.(slot) <- stop

let count t id = t.names.(id).count
let total_ns t id = t.names.(id).total_ns

let quantile t id q =
  let a = t.names.(id) in
  if a.count = 0 then 0.
  else
    let rank = max 1 (int_of_float (ceil (q *. float_of_int a.count))) in
    let rec go b seen =
      let seen = seen + a.hist.(b) in
      if seen >= rank || b = buckets - 1 then bucket_mid b else go (b + 1) seen
    in
    go 0 0

(* Chrome trace-event JSON (loadable in Perfetto): one complete ("X")
   event per stored span, microsecond timestamps relative to the first. *)
let write t ~path =
  let oc = open_out path in
  let t0 = if t.stored > 0 then t.s_start.(0) else 0 in
  output_string oc "{\"traceEvents\":[";
  for i = 0 to t.stored - 1 do
    if i > 0 then output_string oc ",\n";
    Printf.fprintf oc
      "{\"name\":%S,\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"rid\":%d}}"
      t.names.(t.s_name.(i)).a_name
      (float_of_int (t.s_start.(i) - t0) /. 1e3)
      (float_of_int (t.s_stop.(i) - t.s_start.(i)) /. 1e3)
      i t.s_parent.(i) t.s_rid.(i)
  done;
  output_string oc "]}\n";
  close_out oc

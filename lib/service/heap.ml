(* Struct of arrays: entry [i] is [(times.(i), seqs.(i), values.(i))].
   Times live unboxed in a float array, so pushing an entry allocates
   nothing once the arrays have grown. *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { times = [||]; seqs = [||]; values = [||]; size = 0; next_seq = 0 }

let[@inline] less (t1 : float) (s1 : int) t2 s2 = t1 < t2 || (t1 = t2 && s1 < s2)

let resize t ncap filler =
  let n = t.size in
  let times = Array.make ncap 0. and seqs = Array.make ncap 0 in
  let values = Array.make ncap filler in
  Array.blit t.times 0 times 0 n;
  Array.blit t.seqs 0 seqs 0 n;
  Array.blit t.values 0 values 0 n;
  t.times <- times;
  t.seqs <- seqs;
  t.values <- values

(* Move entry [j] into slot [i]. *)
let[@inline] move t ~from:j ~to_:i =
  t.times.(i) <- t.times.(j);
  t.seqs.(i) <- t.seqs.(j);
  t.values.(i) <- t.values.(j)

let[@inline] set t i ~time ~seq value =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.values.(i) <- value

(* Both sifts carry the moving entry in locals and shift the others
   through the hole, writing it once where it comes to rest. *)
let sift_up t i =
  let time = t.times.(i) and seq = t.seqs.(i) and value = t.values.(i) in
  let i = ref i and continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if less time seq t.times.(p) t.seqs.(p) then begin
      move t ~from:p ~to_:!i;
      i := p
    end
    else continue := false
  done;
  set t !i ~time ~seq value

let sift_down t i =
  let time = t.times.(i) and seq = t.seqs.(i) and value = t.values.(i) in
  let i = ref i and continue = ref true in
  while !continue && (2 * !i) + 1 < t.size do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let c = if r < t.size && less t.times.(r) t.seqs.(r) t.times.(l) t.seqs.(l) then r else l in
    if less t.times.(c) t.seqs.(c) time seq then begin
      move t ~from:c ~to_:!i;
      i := c
    end
    else continue := false
  done;
  set t !i ~time ~seq value

let[@inline] push t ~time value =
  let i = t.size in
  if i = Array.length t.seqs then resize t (max 16 (2 * i)) value;
  set t i ~time ~seq:t.next_seq value;
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  sift_up t i

let[@inline] min_time t = if t.size = 0 then infinity else t.times.(0)

let stamp t = t.next_seq

let due t ~now ~before = t.size > 0 && t.times.(0) <= now && t.seqs.(0) < before

let take t =
  if t.size = 0 then invalid_arg "Heap.take: empty heap";
  let top = t.values.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    move t ~from:last ~to_:0;
    sift_down t 0
  end;
  top

let pop t =
  if t.size = 0 then None
  else
    let time = t.times.(0) in
    Some (time, take t)

let size t = t.size

let is_empty t = t.size = 0

let compact t ~live =
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    if live ~time:t.times.(i) t.values.(i) then begin
      move t ~from:i ~to_:!j;
      incr j
    end
  done;
  t.size <- !j;
  (* Floyd heapify: surviving entries keep their (time, seq) keys, so
     their relative pop order is unchanged. *)
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done;
  (* Release the dead tail so week-long churn stays bounded. *)
  let cap = Array.length t.seqs in
  if cap > 16 && t.size * 4 < cap then resize t (max 16 (2 * t.size)) t.values.(0)

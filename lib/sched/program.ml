type 'a t =
  | Done of 'a
  | Step of Op.t * (Op.response -> 'a t)

let return v = Done v

let rec bind p f =
  match p with
  | Done v -> f v
  | Step (op, k) -> Step (op, fun resp -> bind (k resp) f)

let map f p = bind p (fun v -> Done (f v))

module Syntax = struct
  let ( let* ) = bind
  let ( let+ ) p f = map f p
end

let bad_response op resp =
  Format.kasprintf failwith "Program: operation %a got response %a" Op.pp op Op.pp_response resp

(* The continuation forms: each primitive parks at its operation and
   hands the decoded response straight to [k], so a caller written in
   this style pays one [Step] and one closure per operation and no
   [Done] or [bind] re-wrap.  The direct forms are these applied to
   [return]. *)

let bool_op_k op k =
  Step
    ( op,
      function
      | Op.Bool b -> k b
      | resp -> bad_response op resp )

let bool_op op = bool_op_k op return
let tas_name_k i k = bool_op_k (Op.Tas_name i) k
let tas_name i = tas_name_k i return
let tas_aux i = bool_op (Op.Tas_aux i)
let read_name i = bool_op (Op.Read_name i)
let read_aux i = bool_op (Op.Read_aux i)
let owned_name i = bool_op (Op.Owned_name i)

let yield =
  Step
    ( Op.Yield,
      function
      | Op.Unit -> Done ()
      | resp -> bad_response Op.Yield resp )

(* Fault-aware variants: [Ok b] on a normal response, [Error `Faulted]
   when the injected-fault layer ate the operation. *)
let try_bool_op op =
  Step
    ( op,
      function
      | Op.Bool b -> Done (Ok b)
      | Op.Faulted -> Done (Error `Faulted)
      | resp -> bad_response op resp )

let try_tas_name i = try_bool_op (Op.Tas_name i)
let try_tas_aux i = try_bool_op (Op.Tas_aux i)
let try_read_name i = try_bool_op (Op.Read_name i)
let try_read_aux i = try_bool_op (Op.Read_aux i)

let release_name i = bool_op (Op.Release_name i)

let read_word i =
  let op = Op.Read_word i in
  Step
    ( op,
      function
      | Op.Value v -> Done v
      | resp -> bad_response op resp )

let write_word ~idx ~value =
  let op = Op.Write_word { idx; value } in
  Step
    ( op,
      function
      | Op.Unit -> Done ()
      | resp -> bad_response op resp )

let tau_submit_k ~reg ~bit k =
  let op = Op.Tau_submit { reg; bit } in
  Step
    ( op,
      function
      | Op.Unit -> k ()
      | resp -> bad_response op resp )

let tau_submit ~reg ~bit = tau_submit_k ~reg ~bit return

let tau_poll reg =
  let op = Op.Tau_poll reg in
  Step
    ( op,
      function
      | Op.Tau a -> Done a
      | resp -> bad_response op resp )

(* One [Step] for every poll: a [Pending] answer parks the process at
   the very same step again, so waiting allocates nothing. *)
let tau_await_k reg k =
  let op = Op.Tau_poll reg in
  let rec self = Step (op, answer)
  and answer = function
    | Op.Tau Renaming_device.Tau_register.Pending -> self
    | Op.Tau Renaming_device.Tau_register.Won_bit -> k true
    | Op.Tau Renaming_device.Tau_register.Lost_bit -> k false
    | resp -> bad_response op resp
  in
  self

let tau_await reg = tau_await_k reg return

let scan_names_k ~first ~count k =
  let rec loop j =
    if j >= count then k None
    else tas_name_k (first + j) (fun won -> if won then k (Some (first + j)) else loop (j + 1))
  in
  loop 0

let scan_names ~first ~count = scan_names_k ~first ~count return

let recover_owned ~namespace =
  let open Syntax in
  let rec loop i =
    if i >= namespace then return None
    else
      let* mine = owned_name i in
      if mine then return (Some i) else loop (i + 1)
  in
  loop 0

let run_local p =
  match p with
  | Done v -> Some v
  | Step _ -> None

(** Minimal JSON values: a deterministic emitter for the exporters and
    a small validating parser for self-checks and round-trip tests (no
    external JSON dependency). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering.  Emission is deterministic: object fields keep
    their construction order.  NaN and infinities render as [null]. *)

val escape : string -> string
(** The body of a JSON string literal for [s], without the quotes:
    backslash escapes for the double quote, the backslash, newline,
    carriage return and tab, [\u00XX] for the other bytes below 0x20,
    every other byte verbatim.  Shared by every hand-rolled JSON writer
    so they all escape alike. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries the offset and
    reason of the first syntax error. *)

val member : string -> t -> t option
(** Field lookup on an object; [None] on other values. *)

val to_int : t -> int option
val to_str : t -> string option
val to_items : t -> t list option

(** The service chaos campaign: cells × seeds of the one churn driver
    ({!Net_churn}), run as one of three presets, with every gate the
    campaign enforces held here as data.

    - [Service]: the lease service alone — the smallest router the
      directory allows (2 shards × 2 slices × 32) on
      {!Transport.perfect}, no node faults.  Cells [steady-shed]
      (utilization shedding), [queue-degrade] (queue-only admission),
      [burst-reclaim] (a third of the clients crash in a ten-tick
      window) and [hot-zipf] (skew 1.4, short thinks, 35% crashes).
    - [Sharded]: 4 shards × 8 slices on {!Transport.perfect}.  Cells
      [hot-rebalance] (Zipf skew forcing the auto-rebalancer),
      [shard-crash] (silent shard crashes, absorb after grace),
      [handoff-crash] (forced transfers crashed mid-transit) and
      [stall-routing] (rotating stalls either side of the grace).
    - [Net]: the same router over a lossy network.  Cells [lossy],
      [dup-storm], [partition] and [crash-detect].

    Results are machine-readable (schema ["renaming.chaos-<backend>/N"]). *)

type backend = Service | Sharded | Net

val backends : (string * backend) list
(** CLI names, in campaign order. *)

val backend_name : backend -> string

type cell = { cell_name : string; cell_cfg : Net_churn.config }

type spec = { backend : backend; cells : cell list; seeds : int64 array }

val service_router :
  ?slice_capacity:int ->
  ?queue_limit:int ->
  ?request_timeout:float ->
  ?high_water:float ->
  unit ->
  Router.config
(** The [Service] preset's router: 2 shards × 2 slices (the smallest the
    directory allows) of [slice_capacity] (default 32) names, [ttl = 15],
    [grace = 24], no rebalancing.  [queue_limit] is per slice (default
    32); [high_water] defaults to 0.85 and [request_timeout] to 5. *)

val default_sessions : backend -> int
(** Sessions per cell of the full campaign: 150_000, 60_000 and 65_000. *)

val default_spec : ?sessions_per_cell:int -> ?seeds:int64 array -> backend -> spec

type cell_result = {
  cr_name : string;
  cr_seed : int64;
  cr_summary : Net_churn.summary;
  cr_refine : int option;  (** refinement violations; [None] without a checker *)
}

type summary = {
  backend : backend;
  results : cell_result list;
  totals : (string * int) list;
      (** campaign totals in schema order, keyed without the [total_]
          prefix the JSON gives them *)
}

val total : summary -> string -> int
(** Raises [Not_found] on an unknown total. *)

val run :
  ?progress:(done_:int -> total:int -> unit) ->
  ?obs:Renaming_obs.Obs.t ->
  ?refine:(Net_churn.config -> (Router.tap_event -> unit) * (unit -> int)) ->
  spec ->
  summary
(** [refine cfg] attaches a fresh checker to one run: the router tap to
    feed it and a thunk reading its violation count afterwards. *)

(** {2 Gates} *)

type gate =
  | Never of string * string
      (** the total must stay 0; the text names what it counts *)
  | Fires of string * string
      (** coverage floor: the total must be nonzero, or the campaign
          proved nothing about the machinery the text names *)
  | Equal of string * string * string
      (** the two totals must agree; the text names the shortfall *)

val gates : backend -> gate list
(** Safety gates shared by every preset (audit, cross-shard and
    refinement violations, livelocks, unexpected fences, successful
    ghost operations, double grants), then the preset's own: [Service]
    — every stale op rejected, reclaims and sheds fired; [Sharded] —
    handoffs, mid-transit crashes, adoptions and shard crashes fired;
    [Net] — all 15 fault-channel floors fired. *)

val failures : summary -> string list
(** One message per failed gate of the summary's backend, in gate
    order: ["<n> <text>"] for [Never] and [Equal], ["no <text>"] for
    [Fires].  Empty iff the campaign passes. *)

val to_json : summary -> string
val pp : Format.formatter -> summary -> unit

val headline : summary -> string
(** One line: the session count and the total behind every gate of the
    summary's backend, e.g. ["..., dropped 812, replays 2040, ..."]. *)

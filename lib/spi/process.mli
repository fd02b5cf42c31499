(** Process declarations.

    A process is modeled by its abstract external behaviour only: a
    non-empty set of modes plus an activation function.  A process whose
    behaviour needs no mode distinction is built with {!simple}, which
    wraps the rates and latency into a single default mode activated
    whenever enough input tokens are available. *)

type t

val make : ?activation:Activation.t -> modes:Mode.t list -> Ids.Process_id.t -> t
(** @raise Invalid_argument if [modes] is empty, mode ids collide, or an
    activation rule targets an unknown mode.  When [activation] is
    omitted, rules are synthesised in mode order: mode [m] is activated
    when every input channel holds at least [Interval.hi] of [m]'s
    consumption (so the execution is possible whatever value inside the
    interval the execution realises). *)

val simple :
  ?payload_policy:Mode.payload_policy ->
  latency:Interval.t ->
  consumes:(Ids.Channel_id.t * Interval.t) list ->
  produces:(Ids.Channel_id.t * Mode.production) list ->
  Ids.Process_id.t ->
  t
(** Single-mode process; the mode is named ["<pid>.default"]. *)

val id : t -> Ids.Process_id.t
val modes : t -> Mode.t list
val mode_ids : t -> Ids.Mode_id.Set.t
val find_mode : Ids.Mode_id.t -> t -> Mode.t option

val get_mode : Ids.Mode_id.t -> t -> Mode.t
(** @raise Not_found when absent. *)

val activation : t -> Activation.t
val inputs : t -> Ids.Channel_id.Set.t
(** Channels read by any mode or observed by any activation rule. *)

val outputs : t -> Ids.Channel_id.Set.t

val latency_hull : t -> Interval.t
(** Hull of all mode latencies: the process-level latency interval. *)

val consumption_hull : t -> Ids.Channel_id.t -> Interval.t
val production_hull : t -> Ids.Channel_id.t -> Interval.t

val map_channels : (Ids.Channel_id.t -> Ids.Channel_id.t) -> t -> t
(** Renames channel references in all modes and activation rules; used
    when a cluster is instantiated against interface ports. *)

val rename : Ids.Process_id.t -> t -> t

val with_activation : Activation.t -> t -> t
(** @raise Invalid_argument under the same conditions as {!make}. *)

val pp : Format.formatter -> t -> unit

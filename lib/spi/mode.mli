(** Process modes.

    A mode is a subset of the possible behaviours of a process: it fixes
    (or narrows to sub-intervals) the execution latency, the number of
    tokens consumed from each input channel and produced on each output
    channel, and the tags attached to produced tokens.  The mode table of
    Figure 1 (p2's [m1]/[m2]) is expressed with this module. *)

type production = {
  rate : Interval.t;  (** number of tokens produced per execution *)
  tags : Tag.Set.t;  (** tags attached to every produced token *)
}

type payload_policy =
  | Fresh  (** produced tokens carry no payload *)
  | Inherit_first
      (** produced tokens carry the payload of the first token consumed
          in this execution, if any — used by observers to follow data
          (e.g. image ids) through a chain *)

type t

val make :
  ?payload_policy:payload_policy ->
  latency:Interval.t ->
  consumes:(Ids.Channel_id.t * Interval.t) list ->
  produces:(Ids.Channel_id.t * production) list ->
  Ids.Mode_id.t ->
  t
(** @raise Invalid_argument on duplicate channel entries or negative
    rate bounds. *)

val produce : ?tags:Tag.Set.t -> Interval.t -> production
(** Convenience constructor for {!production}; [tags] defaults to the
    empty set. *)

val id : t -> Ids.Mode_id.t
val latency : t -> Interval.t
val payload_policy : t -> payload_policy
val consumption : t -> Ids.Channel_id.t -> Interval.t
(** Zero interval when the mode does not consume from that channel. *)

val production_on : t -> Ids.Channel_id.t -> production option
val consumed_channels : t -> Ids.Channel_id.Set.t
val produced_channels : t -> Ids.Channel_id.Set.t
val consumptions : t -> (Ids.Channel_id.t * Interval.t) list
val productions : t -> (Ids.Channel_id.t * production) list

val rename : Ids.Mode_id.t -> t -> t

val map_channels : (Ids.Channel_id.t -> Ids.Channel_id.t) -> t -> t
(** Renames every channel reference (rates keep their values).
    @raise Invalid_argument if the renaming merges two channels. *)

val scale_latency : int -> t -> t
(** Multiplies both latency bounds; used when a mode abstracts several
    chained cluster executions. *)

val join : Ids.Mode_id.t -> t -> t -> t
(** Interval hull of two modes: latency and all rates joined pointwise
    (a channel missing from one side contributes a zero bound).  Tags
    are unioned.  Used by parameter extraction when several cluster
    behaviours are abstracted into one mode. *)

val pp : Format.formatter -> t -> unit

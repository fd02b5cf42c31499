(** Untimed firing semantics (the SPI update rules).

    A state maps every channel to its contents.  Firing a process in a
    mode consumes tokens from the mode's input channels and produces
    tagged tokens on its output channels.  Queues pop from the front
    (destructive read); registers are sampled without removal and
    overwritten on production (destructive write).  The timed simulator
    in [lib/sim] drives these rules; they are also exercised directly by
    unit and property tests. *)

type state

type overflow =
  | Reject  (** raise {!Channel_overflow} when a bounded queue overflows *)
  | Drop_newest  (** silently drop tokens that do not fit *)

exception Channel_overflow of Ids.Channel_id.t

val initial : Model.t -> state
(** Every channel holds its declared initial tokens. *)

val tokens_available : state -> Ids.Channel_id.t -> int
(** Queue: queue length.  Register: 1 when it holds a token, else 0.
    Unknown channels hold 0 tokens. *)

val first_tags : state -> Ids.Channel_id.t -> Tag.Set.t option
val first_token : state -> Ids.Channel_id.t -> Token.t option
val contents : state -> Ids.Channel_id.t -> Token.t list
val view : state -> Predicate.view

val inject : ?overflow:overflow -> Model.t -> Ids.Channel_id.t -> Token.t -> state -> state
(** Environment write (used by simulator stimuli).
    @raise Channel_overflow under [Reject] on a full bounded queue. *)

val clear_channel : Ids.Channel_id.t -> state -> state
(** Empties a channel; cluster termination destroys internal buffers
    (paper, Section 4). *)

val set_contents : Ids.Channel_id.t -> Token.t list -> state -> state
(** [set_contents cid tokens state] replaces the channel's contents with
    [tokens] (front first) in time linear in [tokens] — the same state
    as {!clear_channel} followed by one {!inject} per token, for any
    contents the channel can hold.  The simulators rebuild final states
    with it.
    @raise Invalid_argument when [tokens] do not fit: more than one token
    for a register, more than the capacity for a bounded queue.
    @raise Not_found when [tokens] is non-empty and [state] lacks the
    channel. *)

val enabled_rule : Model.t -> state -> Ids.Process_id.t -> Activation.rule option
(** First activation rule of the process enabled in [state]. *)

val enabled_mode : Model.t -> state -> Ids.Process_id.t -> Mode.t option

(** Record of one execution. *)
type firing = {
  process : Ids.Process_id.t;
  mode : Ids.Mode_id.t;
  consumed : (Ids.Channel_id.t * Token.t list) list;
  produced : (Ids.Channel_id.t * Token.t list) list;
}

val consume :
  ?choose_rate:(Interval.t -> int) ->
  Mode.t ->
  state ->
  state * (Ids.Channel_id.t * Token.t list) list
(** The consumption half of a firing (performed when a process starts
    executing).  The chosen rate is clamped to the tokens available. *)

val produce :
  ?overflow:overflow ->
  ?choose_rate:(Interval.t -> int) ->
  Model.t ->
  Mode.t ->
  inherited_payload:int option ->
  state ->
  state * (Ids.Channel_id.t * Token.t list) list
(** The production half of a firing (performed at completion). *)

val inherited_payload :
  Mode.t -> (Ids.Channel_id.t * Token.t list) list -> int option
(** The payload produced tokens inherit under the mode's payload
    policy, given what the firing consumed. *)

val fire :
  ?overflow:overflow ->
  ?choose_rate:(Interval.t -> int) ->
  Model.t ->
  Ids.Process_id.t ->
  Mode.t ->
  state ->
  state * firing
(** Executes one firing.  [choose_rate] picks the realised value inside
    each rate interval (default: the lower bound for consumption and
    production alike, via {!Interval.lo}); the chosen consumption is
    clamped to the tokens actually available so partially-filled
    channels cannot go negative.
    @raise Channel_overflow under [Reject] on queue overflow. *)

val pp_firing : Format.formatter -> firing -> unit
val total_tokens : state -> int

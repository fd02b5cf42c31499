(** Empirical buffer sizing.

    Static queue bounds ({!Spi.Analysis.queue_bound}) are safe but loose
    and unavailable for cyclic graphs.  This module sizes buffers from
    simulation: run representative stimuli, take each queue's observed
    high-water mark (plus a safety margin), and rebuild the model with
    those capacities.  {!verify} re-runs the stimuli against the
    resized model under the rejecting overflow policy, demonstrating
    that the chosen sizes suffice for that workload. *)

type suggestion = {
  chan : Spi.Ids.Channel_id.t;
  observed : int;  (** high-water mark over the runs *)
  capacity : int;  (** observed + margin, at least 1 *)
}

val suggest :
  ?margin:int ->
  ?policy:Engine.policy ->
  ?configurations:Variants.Configuration.t list ->
  stimuli:Engine.stimulus list list ->
  Spi.Model.t ->
  suggestion list
(** One simulation per stimulus list (different workloads), all on one
    {!Compile} plan of the model; the suggestion takes the maximum
    high-water over all runs.  [margin] defaults to 0.  Registers are
    skipped (their capacity is fixed).

    @raise Invalid_argument on a bad configuration set
    ({!Compile.compile}). *)

val apply : suggestion list -> Spi.Model.t -> Spi.Model.t
(** The same model with every suggested queue bounded to its suggested
    capacity (initial tokens preserved). *)

val verify :
  ?policy:Engine.policy ->
  ?configurations:Variants.Configuration.t list ->
  stimuli:Engine.stimulus list list ->
  Spi.Model.t ->
  (unit, Spi.Ids.Channel_id.t) result
(** Runs every stimulus list against one {!Compile} plan of the model
    with [Reject] overflow; [Error c] names the first overflowing
    channel.

    @raise Invalid_argument on a bad configuration set
    ({!Compile.compile}). *)

val pp_suggestion : Format.formatter -> suggestion -> unit

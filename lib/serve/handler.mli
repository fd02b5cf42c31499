(** Request execution for the daemon, socket-free for testability.

    A handler owns the exploration store, the idempotency cache and the
    default limits; {!handle} turns one admitted request into one
    response.  Batch sub-requests run on a domain pool
    ({!Synth.Par.map}) with one domain each; store writes are collected
    as deferred commits and applied on the calling domain afterwards, so
    the journal and the caches stay single-writer. *)

type t

val max_configurations : int
(** Simulate (family or flat), synthesize and pareto requests whose
    variant space has more configurations than this are answered with a
    {!Protocol.too_large} error before any model is flattened or plan
    built.  An overflowing count is refused the same way, and so is a
    model past {!Lang.Parser.max_initial_tokens}, while it is parsed. *)

val create :
  ?store:Store.Keyed.t ->
  ?default_deadline_ms:int ->
  ?series:Obs.Series.t ->
  ?on_trace:(Obs.Rtrace.t -> unit) ->
  jobs:int ->
  unit ->
  t
(** [series] is returned by the [metrics] verb next to the snapshot and
    exposition; [on_trace] receives every completed request's span tree
    (the daemon's [--trace] export hooks in here). *)

val handle : t -> admitted_ns:int -> queue_depth:int -> Protocol.request ->
  Obs.Json.t
(** Executes the request; deadlines are absolute from [admitted_ns], so
    time spent queued counts against the budget.  A synthesize past its
    deadline answers a degraded incumbent, and a pareto the frontier
    walked so far, marked degraded; a simulate past its deadline
    answers {!Protocol.deadline_exceeded}.  Never raises: every failure
    becomes a [status = "error"] response.

    Each non-replayed request runs under a fresh {!Obs.Rtrace} whose rid
    is the request id (or a generated [req-N]); when the request carries
    [trace = true] the response gains a ["trace"] field with the
    [rtrace/v1] span tree.  Completion, degradation and failure are
    logged through {!Obs.Log} under the same rid. *)

val shutdown_requested : t -> bool
(** Set once a [shutdown] request has been handled. *)

val store : t -> Store.Keyed.t option

(** Per-domain timeline capture for the explorer (one lane, on the
    calling domain) and for {!Par} pools (one lane per worker domain).

    The search loops are allocation-free and must stay that way, so
    tracing writes fixed-layout integer records into a bounded
    per-domain buffer: recording is a buffer-full check plus five array
    stores, with no atomics and no allocation (each buffer is written
    only by its own domain, via [Domain.DLS]).  When a buffer fills, the
    overflow is counted, not silently lost.

    Disabled cost is one atomic load per record site — and the sites are
    per {e task} / per {e incumbent improvement}, never per search node,
    so the bench trajectory gate is unaffected when tracing is off.

    Lifecycle: {!enable} before the pool runs (it stamps the time base
    and clears previous registrations), search, {!append_timeline} to
    drain into an {!Obs.Trace_event} builder, {!disable}. *)

val enable : ?capacity:int -> unit -> unit
(** Arm recording.  [capacity] (default 4096) is the per-domain record
    budget; records past it are dropped and counted.  Clears previously
    registered buffers, so call it before spawning workers.
    @raise Invalid_argument when [capacity < 1]. *)

val disable : unit -> unit

val is_enabled : unit -> bool

val register_domain : unit -> unit
(** Ensure the calling domain has a registered (possibly empty) buffer,
    so a worker that claims no task still gets a lane.  Call once at
    worker entry; no-op when disabled. *)

val record_task :
  wait_from_ns:int -> claimed_ns:int -> end_ns:int -> task:int -> unit
(** One pool task on the calling domain's lane: it idled from
    [wait_from_ns] (pool start, or the end of this domain's previous
    task), claimed the task at [claimed_ns], finished at [end_ns].
    Timestamps are {!Obs.Clock.now_ns} values.  No-op when disabled. *)

val record_improvement : cost:int -> unit
(** The calling domain improved the incumbent to [cost] (timestamped
    now).  No-op when disabled. *)

val record_steal : victim:int -> worker:int -> task:int -> unit
(** The calling domain — worker slot [worker] — stole task [task] from
    worker [victim]'s deque (timestamped now).  The instant lands on the
    {e stealing} domain's lane, since it is recorded into the caller's
    buffer.  No-op when disabled. *)

val dropped : unit -> int
(** Records dropped across all registered buffers since {!enable}. *)

val emit_timeline : ?pid:int -> ?name:string -> Obs.Trace_event.sink -> unit
(** Drain every registered buffer into [sink] under process group
    [pid] (default 1), labelled [name] (default ["explorer"]): one lane
    per domain with queue-wait and task spans, incumbent-improvement
    instants carrying the cost (mirrored onto an ["incumbent cost"]
    counter track, so viewers draw the descent as a step function), and
    steal instants (on the stealing domain's lane, with the victim
    worker and task id as args),
    timestamps relative to the {!enable} call in microseconds.  Also
    bumps the [par.trace_dropped] counter with the drop total.  Call
    after the pool has joined. *)

val append_timeline : ?pid:int -> ?name:string -> Obs.Trace_event.t -> unit
(** {!emit_timeline} into a buffered collection. *)

val reset : unit -> unit
(** Zero every registered buffer (registrations stay valid). *)

(** Timeline capture for the explorer's incumbent improvements.  Each
    domain that records gets its own lane; the search runs on the
    calling domain, so a traced synthesis shows one.

    The search loops are allocation-free and must stay that way, so
    tracing writes fixed-layout integer records into a bounded
    per-domain buffer: recording is a buffer-full check plus two array
    stores, with no atomics and no allocation (each buffer is written
    only by its own domain, via [Domain.DLS]).  When a buffer fills, the
    overflow is counted, not silently lost.

    Disabled cost is one atomic load per record site — and the sites are
    per {e incumbent improvement}, never per search node, so the bench
    trajectory gate is unaffected when tracing is off.

    Lifecycle: {!enable} before the search (it stamps the time base and
    clears previous registrations), search, {!append_timeline} to drain
    into an {!Obs.Trace_event} builder, {!disable}. *)

val enable : ?capacity:int -> unit -> unit
(** Arm recording.  [capacity] (default 4096) is the per-domain record
    budget; records past it are dropped and counted.  Clears previously
    registered buffers.
    @raise Invalid_argument when [capacity < 1]. *)

val disable : unit -> unit

val is_enabled : unit -> bool

val record_improvement : cost:int -> unit
(** The calling domain improved the incumbent to [cost] (timestamped
    now).  No-op when disabled. *)

val dropped : unit -> int
(** Records dropped across all registered buffers since {!enable}. *)

val emit_timeline : ?pid:int -> ?name:string -> Obs.Trace_event.sink -> unit
(** Drain every registered buffer into [sink] under process group
    [pid] (default 1), labelled [name] (default ["explorer"]): one lane
    per domain with incumbent-improvement instants carrying the cost
    (mirrored onto an ["incumbent cost"] counter track, so viewers draw
    the descent as a step function), timestamps relative to the
    {!enable} call in microseconds.  Also bumps the [par.trace_dropped]
    counter with the drop total.  Call after the search has returned. *)

val append_timeline : ?pid:int -> ?name:string -> Obs.Trace_event.t -> unit
(** {!emit_timeline} into a buffered collection. *)

val reset : unit -> unit
(** Zero every registered buffer (registrations stay valid). *)

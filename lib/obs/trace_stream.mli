(** Incremental [trace/v1] export.

    {!Trace_event.to_file} holds every event of every run in memory and
    serializes once at the end — fine for a single simulation, wasteful
    for a long fault campaign where each seed's timeline is independent.
    A [Trace_stream] writes the same file {e incrementally}: converters
    emit through {!sink} exactly as they would into a buffered
    collection, and {!flush} — called at segment boundaries, e.g. after
    each seed's run has been converted — appends the finished segments
    to disk and drops them, so memory holds at most the segments
    currently being built, not the whole campaign.

    Byte equality: provided every record of a [pid] is emitted before a
    [flush] that follows it (the natural shape of a loop converting one
    run, then flushing), the finished file is byte-identical to
    {!Trace_event.to_file} over the same records — same canonical
    per-pid segment ordering, same indentation, same trailing newline.
    The obs suite's byte-equality test enforces this.

    Crash safety: output accumulates in a temporary file next to [path]
    and is renamed over it only by {!close}, so readers never see a
    torn or headless trace (same contract as {!Atomic_file}). *)

type t

val create : string -> t
(** Open a stream that will become [path] on {!close}.  The temporary
    file lives next to [path].
    @raise Sys_error when the directory is not writable. *)

val sink : t -> Trace_event.sink
(** Feed this to converters ({!Sim.Timeline.emit},
    [Synth.Domain_trace.emit_timeline]).  Records buffer per [pid] until
    {!flush}.
    @raise Invalid_argument after {!close}. *)

val flush : t -> unit
(** Append every buffered segment (pids in first-appearance order,
    metadata before timestamp-sorted events) and release the memory.
    Emitting more records for an already-flushed [pid] afterwards is
    permitted — the file stays valid JSON — but forfeits byte equality
    with the buffered exporter, which keeps each pid contiguous. *)

val close : t -> int
(** {!flush}, terminate the document, and atomically rename into place.
    Returns the number of events written (metadata records excluded).
    The stream must not be used afterwards. *)

val abort : t -> unit
(** Discard the stream and its temporary file; [path] is untouched.
    No-op when already closed or aborted. *)

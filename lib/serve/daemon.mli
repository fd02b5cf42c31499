(** The [spi_variants serve] daemon.

    A single-threaded event loop over a Unix-domain stream socket:
    connections are accepted and read without blocking, complete lines
    pass admission control into a bounded request queue, and one queued
    request executes at a time (requests themselves fan out on the
    domain pool).  Admission is load-shedding: when the queue is full
    the request is answered immediately with a structured [overloaded]
    rejection carrying the observed depth and a retry hint, and nothing
    is enqueued.  A request line longer than {!max_line_bytes} is
    answered with a {!Protocol.too_large} error and its connection is
    dropped.  Requests still queued for a connection that has closed
    are skipped, not executed: their fd may already belong to a newer
    client.  Writes never block: the part of an answer the client's
    socket cannot take yet waits in the connection's backlog and goes
    out as the socket drains, while other clients are served; a
    connection whose backlog passes 16 MiB is dropped.

    Shutdown is graceful on SIGTERM, SIGINT, or a [shutdown] request:
    the listener closes (new connections are refused by the kernel),
    queued requests drain and get their responses (backlogs get a
    bounded grace to reach clients still reading), the store and the
    optional metrics snapshot are flushed, and the loop returns.  A
    [kill -9] is the crash the store's journal is designed for: at most
    the record being written is lost, and the next start replays the
    rest (see {!Store.Journal}). *)

type config = {
  socket_path : string;
  store_path : string option;  (** exploration journal; [None] disables *)
  metrics_path : string option;  (** obs/v1 snapshot written on shutdown *)
  trace_path : string option;
      (** [trace/v1] timeline of the most recent request span trees
          (one pid per request), written on shutdown *)
  log_path : string option;
      (** structured [log/v1] stream destination (append);
          [None] keeps the stderr sink *)
  log_level : Obs.Log.level;  (** log threshold (daemon default: Info) *)
  sample_interval_ms : int;
      (** series ticker period; [0] disables sampling entirely *)
  series_windows : int;  (** samples retained for rolling rates *)
  jobs : int;  (** domain count for request execution *)
  queue_limit : int;  (** admission bound: queued requests beyond
                          the one executing *)
  default_deadline_ms : int option;  (** applied when a request carries
                                         no deadline of its own *)
  fsync : bool;  (** fsync the journal on every commit (default on) *)
}

val default_queue_limit : int
val default_sample_interval_ms : int

val max_line_bytes : int
(** Longest request line accepted, newline excluded (1 MiB). *)

val split_lines : Buffer.t -> string -> (string list, int) result
(** [split_lines pending chunk] splits one freshly read chunk of a
    connection's input.  [pending] holds the unterminated tail of
    earlier chunks; the complete lines the chunk terminates are returned
    in order (newlines stripped, the first prefixed with [pending]), and
    [pending] is left holding the new tail.  Only [chunk] is scanned, so
    the cost is linear in the input however it is chunked.  Once a line
    — complete or not — would exceed {!max_line_bytes}, the result is
    [Error max_line_bytes]; the connection is then beyond repair and
    [pending] is unspecified.  Socket-free so it can be tested alone. *)

val run : config -> unit
(** Binds, serves, and blocks until shutdown.  Removes a pre-existing
    socket file at [socket_path] (stale from a previous crash) before
    binding.
    @raise Unix.Unix_error when the socket cannot be bound. *)

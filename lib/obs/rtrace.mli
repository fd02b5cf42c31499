(** Request-scoped tracing: a per-request span tree.

    A trace is minted when a request is admitted ([Serve.Handler]) and
    made *ambient* on the handling domain; every
    {!Registry.record_span} / {!Registry.with_span} on a domain with an
    active trace also lands in that trace, parented to the innermost
    open span.  [Synth.Par] captures the spawning domain's context and
    restores it on each worker, so spans recorded inside pool tasks
    (batch items, simulation runs) join the same tree.

    Recording is lock-free (a CAS cons into a bounded list) and happens
    once per task or run — never per node; with no active trace the
    layer costs one domain-local read per recorded span. *)

type t

type span = {
  id : int;
  parent : int;  (** 0 for the root span *)
  name : string;
  domain : int;
  start_ns : int;  (** absolute monotonic stamp; JSON is trace-relative *)
  dur_ns : int;
}

val create : ?capacity:int -> string -> t
(** [create rid] mints a trace for request [rid].  At most [capacity]
    (default 512) spans are retained, the root always among them, so
    its children keep [capacity - 1]; overflow is counted in
    {!dropped}, never silent.
    @raise Invalid_argument when [capacity < 1]. *)

val rid : t -> string
val dropped : t -> int

(** {1 Ambient context}

    The current (trace, parent span id) pair is domain-local.  [capture]
    / [restore] move it across domains — {!Synth.Par} calls them around
    worker bodies so pool tasks inherit the spawning request's trace. *)

type context

val capture : unit -> context
val restore : context -> unit

val current : unit -> t option
(** The trace active on this domain, if any. *)

val with_request : t -> string -> (unit -> 'a) -> 'a
(** [with_request t name f] activates [t] on this domain, runs [f]
    under a root-parented span called [name] (recorded even if [f]
    raises), then restores the previous context. *)

(** {1 Recording}

    These are the hooks {!Registry} drives; instrumentation sites
    should keep calling [Registry.with_span] / [Registry.record_span]
    and get request scoping for free. *)

val note : name:string -> start_ns:int -> dur_ns:int -> unit
(** Record a leaf span under the innermost open span of the active
    trace; no-op without one. *)

type frame

val enter : unit -> frame
(** Open a nested span: allocates its id so spans recorded inside the
    body parent to it.  Pair with {!exit} (use [Fun.protect]). *)

val exit : frame -> name:string -> start_ns:int -> dur_ns:int -> unit
(** Close a span opened by {!enter}, record it, and restore the
    enclosing parent. *)

(** {1 Rendering} *)

val spans : t -> span list
(** Retained spans, ordered by start stamp. *)

val to_json : t -> Json.t
(** The [rtrace/v1] document: rid, spans (ids, parent links,
    trace-relative [start_ns], durations, recording domain), dropped
    count. *)

val emit_timeline : pid:int -> t -> Trace_event.sink -> unit
(** Render the trace as one [trace/v1] process group: [pid] named after
    the rid, one lane per recording domain, one [Complete] event per
    span carrying its id/parent in the args. *)

(** A minimal binary min-heap keyed by [(time, sequence)].

    The simulator orders events by time, breaking ties by insertion
    sequence so simultaneous events process deterministically in
    schedule order. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : time:int -> 'a -> 'a t -> unit
(** Inserts with the next sequence number. *)

val pop_min : 'a t -> (int * 'a) option
(** Removes and returns the earliest event ([None] when empty). *)

val peek_time : 'a t -> int option

val copy : 'a t -> 'a t
(** Independent clone: pushes and pops on either heap leave the other
    untouched, and the clone continues the original's sequence counter
    so FIFO tie-breaks stay aligned across the fork.  Entry values are
    shared (they are treated as immutable).  {!Family} forks the event
    heap at sub-family split points with this. *)

(** The same heap specialized to [int] payloads, stored flat in one
    [int array].  Pushing and dropping allocate nothing once the
    backing array has reached the run's high-water mark: no entry
    record and no closure per call.  Used by the compiled event loop
    ({!Crt}), whose events are int-coded. *)
module Int_heap : sig
  type t

  val create : unit -> t
  val is_empty : t -> bool
  val size : t -> int

  val push : time:int -> int -> t -> unit
  (** Inserts with the next sequence number, exactly like {!val:push}. *)

  val min_time : t -> int
  (** Time of the earliest event.  Undefined when empty. *)

  val min_value : t -> int
  (** Payload of the earliest event.  Undefined when empty. *)

  val drop_min : t -> unit
  (** Removes the earliest event.  Undefined when empty. *)

  val copy : t -> t
  (** Independent clone, exactly like {!val:copy} on the generic heap:
      the sequence counter carries over so FIFO tie-breaks stay aligned
      across a fork.  {!Family_compiled} forks the int-coded event heap
      at sub-family split points with this. *)
end

(** Cost / load Pareto exploration.

    Minimizing cost under a hard capacity is one point of a larger
    trade-off: spending more hardware lowers the processor load (and
    with it, latency slack and headroom for future variants).  This
    module enumerates the Pareto-optimal frontier of (total cost,
    worst-case application load) over all feasible bindings — small
    instances only, as the enumeration is exhaustive. *)

type point = {
  binding : Binding.t;
  total_cost : int;
  worst_load : int;
}

val frontier : ?jobs:int -> ?capacity:int -> Tech.t -> App.t list -> point list
(** Pareto-optimal feasible bindings, sorted by increasing cost (and
    hence decreasing load).  Dominated and duplicate-valued points are
    removed.  Empty when no feasible binding exists.  [jobs] (default
    1) sizes the {!Par.map} the independent subtree tasks run on: 1
    runs them on the calling domain, [n > 1] on [n] domains, 0 on
    {!Par.available_jobs}.  The objective vectors returned are
    identical for every job count.
    @raise Invalid_argument when [jobs < 0]. *)

val dominates : point -> point -> bool
(** [dominates a b] when [a] is no worse on both axes and better on at
    least one. *)

val pp_point : Format.formatter -> point -> unit

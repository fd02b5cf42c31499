(** Cost / load Pareto exploration.

    Minimizing cost under a hard capacity is one point of a larger
    trade-off: spending more hardware lowers the processor load (and
    with it, latency slack and headroom for future variants).  This
    module walks the Pareto-optimal frontier of (total cost, worst-case
    application load) over all feasible bindings by repeated synthesis:
    each point is an optimum {!Explore.solve} proved at some capacity. *)

type point = {
  binding : Binding.t;
  total_cost : int;
  worst_load : int;
}

val frontier :
  ?capacity:int ->
  ?deadline_ns:int ->
  Tech.t ->
  App.t list ->
  point list * bool
(** [frontier tech apps] is the Pareto-optimal frontier, sorted by
    increasing cost (and hence decreasing load), one point per cost, and
    whether a deadline cut it short.

    The walk solves at [capacity] (default
    {!Schedule.default_capacity}), which gives the cheapest cost [k] and
    a binding of load [l].  It then solves again at capacity [l - 1].  A
    solve of cost [k] again lowers the last point's load; a dearer one
    adds a point.  The walk ends at the first infeasible solve or at
    load 0.  Each solve lowers the capacity, so a frontier takes at most
    [capacity + 1] solves, and the walk holds only the frontier in
    memory besides the one solve in flight.  Without a deadline the
    frontier is exact: every point's cost is the least cost at its load,
    and its load the least load at its cost.

    Each point's binding is the one {!Explore.solve} returned at the
    capacity that found the point's load.  It is one of the bindings
    with the point's cost and load, and the same one for every caller.

    [deadline_ns] is an absolute {!Obs.Clock} reading handed to every
    solve.  The walk stops at the first solve that is degraded or finds
    no binding before the deadline, and the flag is then [true].  A
    degraded solve's binding is still feasible, and no listed point
    dominates it, so it stays as the last point.  A deadline that has
    already passed answers the explorer's greedy completion alone.

    Empty when no feasible binding exists.
    @raise Not_found when an application process is missing from the
    technology library. *)

val dominates : point -> point -> bool
(** [dominates a b] when [a] is no worse on both axes and better on at
    least one. *)

val pp_point : Format.formatter -> point -> unit

(** Multi-processor HW/SW partitioning.

    Generalizes {!Explore} from one shared processor to a heterogeneous
    set: each software process is placed on a specific processor, each
    processor has its own capacity and cost, and a processor is paid for
    only when something runs on it.  Schedulability remains
    per-application and per-processor — mutually exclusive variants
    still share every processor they are placed on.

    The search is an exact branch and bound on the calling domain: the
    hardware placement of a process first, then software on each
    processor in list order, pruned by area plus the cost of the
    processors used so far. *)

type processor = {
  id : Spi.Ids.Resource_id.t;
  capacity : int;
  cost : int;
}

val processor : name:string -> capacity:int -> cost:int -> processor

type placement = Hw | Sw_on of Spi.Ids.Resource_id.t

type binding = placement Spi.Ids.Process_id.Map.t

type solution = {
  binding : binding;
  total_cost : int;
  processors_used : Spi.Ids.Resource_id.t list;
  asic_area : int;
  worst_load : (Spi.Ids.Resource_id.t * int) list;
      (** per processor, the highest per-application load *)
  explored : int;
      (** decision nodes expanded (same counter semantics as
          {!Explore.solution}) *)
  pruned : int;
      (** subtrees cut by the incumbent bound or a capacity overload *)
  degraded : bool;
      (** the deadline expired before the search proved optimality (see
          {!Explore.solution}); always [false] without a deadline *)
}

val optimal :
  ?accept:(binding -> bool) ->
  ?deadline_ns:int ->
  Tech.t ->
  processor list ->
  App.t list ->
  solution option
(** Cost-minimal feasible placement, exact (branch and bound).  The
    [Tech.t] software load figures apply uniformly to every processor
    (homogeneous execution times; heterogeneous costs/capacities).
    [accept] filters complete placements.  [deadline_ns] follows
    {!Explore.solve}: an absolute {!Obs.Clock} reading past which the
    search stops expanding and returns its best incumbent with
    [degraded = true] ([None] when no incumbent was found in time).
    @raise Invalid_argument when [processors] contains duplicate ids.
    @raise Not_found when an application process is missing from the
    technology library. *)

val to_simple : binding -> Binding.t
(** Forgets the placement, keeping SW/HW — for reuse of the single-
    processor cost and timing helpers. *)

val pp_placement : Format.formatter -> placement -> unit
val pp_solution : Format.formatter -> solution -> unit

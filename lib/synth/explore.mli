(** Design-space exploration: optimal HW/SW partitioning.

    Branch-and-bound over the union of the applications' processes.
    Feasibility (checked incrementally) is per application — mutually
    exclusive variants never share a schedulability budget, which is
    exactly where a variant-aware representation beats both independent
    synthesis and superposition.  The explorer is exact: it returns a
    cost-minimal feasible binding when one exists.

    The bound reasons over the whole application family at once.  Each
    call builds one table over the fixed decision order.  At every depth
    it groups the applications by their undecided software-capable
    process set.  A group's most loaded member must move its excess load
    to hardware: past the group's movable load the subtree is
    infeasible, and otherwise the move costs at least the
    fractional-knapsack area of that load.  Groups whose movable
    processes are disjoint pay for disjoint processes, so their terms
    add up.  Applications that pick different variants of a site move
    load from disjoint cluster processes, which is where the bound is
    variant-aware.  A node is cut when area so far, undecided
    hardware-only area, the processor cost (when software is used or
    forced) and the best disjoint packing's terms reach the incumbent.
    Every cut subtree holds no feasible leaf cheaper than the incumbent,
    so the search finds the optimal cost an exhaustive search would;
    only [explored] and [pruned] shrink.  Each group keeps its
    undecided movable processes in knapsack order, copied at every
    depth that extends it, so the table can grow with processes{^2}
    times applications.  Its build is charged per word written or
    scanned, and past 2{^21} words (16 MB) it is abandoned: the search
    then keeps only the plain bound (area so far plus the processor
    cost once software is used).  When every application's whole
    software-capable load fits the capacity no group can ever need to
    move load, and the table keeps only the undecided hardware-only
    area and the forced processor cost.  Elsewhere a node skips the
    per-application scan when its highest load leaves room for every
    group's undecided load.

    The search runs on the calling domain and starts no other: one
    descent from the root, software child first, against the cheapest
    of three seeds.  In tie-break order these are the warm start (when
    one is given and valid), the greedy completion of the empty binding
    in decision order, and the greedy completion in knapsack order:
    software-only processes first, then the dearest hardware area per
    unit of software load first.  A greedy completion places each
    process in software when every application it belongs to keeps its
    load within capacity, in hardware otherwise. *)

type solution = {
  binding : Binding.t;
  cost : Cost.breakdown;
  worst_load : int;  (** highest per-application software load *)
  explored : int;
      (** decision nodes expanded: nodes that survived the bound checks
          and branched on a process *)
  pruned : int;
      (** subtrees cut by a bound reaching the incumbent, a capacity
          overload, or a group that cannot shed its excess load *)
  degraded : bool;
      (** the deadline expired before the search proved optimality: the
          binding is the best incumbent found, feasible and valid, but a
          cheaper one may exist.  Always [false] without a deadline. *)
}

type diagnostic =
  | Pinned_impl_unavailable of {
      process : Spi.Ids.Process_id.t;
      impl : Binding.impl;
    }
      (** a [fixed] binding pins [process] to an implementation its
          technology entry does not offer — no completion can exist,
          regardless of capacity *)
  | Infeasible  (** genuine infeasibility: every binding overloads some
          application or is rejected by [accept] *)
  | Deadline_no_incumbent
      (** the deadline expired before any feasible binding was found —
          the instance may or may not be feasible *)

val pp_diagnostic : Format.formatter -> diagnostic -> unit

val solve :
  ?jobs:int ->
  ?capacity:int ->
  ?fixed:Binding.t ->
  ?accept:(Binding.t -> bool) ->
  ?deadline_ns:int ->
  ?warm:Binding.t ->
  Tech.t ->
  App.t list ->
  (solution, diagnostic) result
(** [jobs] is accepted and ignored: the search always runs on the
    calling domain, so every value, negative ones included, gives the
    same answer and the same [explored]/[pruned] counts.  [fixed] pins
    implementations for some processes (used by the incremental
    baseline).  [accept] is an additional feasibility filter evaluated
    on complete bindings — e.g. {!Timing.all_satisfied} partially
    applied, to demand latency-path constraints on top of
    schedulability.

    [deadline_ns] is an absolute {!Obs.Clock} reading: the search checks
    it cooperatively (every 1024 expanded nodes) and
    past it stops expanding, returning the best incumbent found so far
    with [degraded = true] — or [Error Deadline_no_incumbent] when none
    was found.  A deadline that has already expired answers the
    cheapest seed without searching.
    Without a deadline the search is exact.

    [warm] is a previously found binding (e.g. replayed from the
    exploration store): it is re-validated against the current problem —
    pins, capacity, [accept], with uncovered processes completed
    greedily — and, when valid and no greedy seed is cheaper, seeds the
    incumbent so equal-or-worse subtrees prune immediately.  The search
    still proves optimality, so a warm run returns exactly the costs of
    a cold one; an invalid warm binding is counted and ignored.
    @raise Not_found when an application process is missing from the
    technology library. *)

val optimal :
  ?capacity:int ->
  ?fixed:Binding.t ->
  ?accept:(Binding.t -> bool) ->
  Tech.t ->
  App.t list ->
  solution option
(** {!solve} with the diagnostic collapsed to [None] — for callers that
    only care whether a feasible binding exists. *)

val optimal_exn :
  ?capacity:int ->
  ?fixed:Binding.t ->
  ?accept:(Binding.t -> bool) ->
  Tech.t ->
  App.t list ->
  solution
(** @raise Failure with the diagnostic's message when infeasible. *)

val pp_solution : Format.formatter -> solution -> unit

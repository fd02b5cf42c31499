(** A domain pool for independent tasks.

    Its users are the family simulation's split-off sub-families
    ({!fold} with {!push}), the daemon's batch items, the fault
    campaign's seeds and the Pareto enumeration's subtrees ({!map}).
    The synthesis branch and bound ({!Explore}) runs on the calling
    domain and does not use it.

    The pool is one task stack shared by every worker under one lock.
    The seeds start on it in order; a {!push}ed child goes on top, so
    children run LIFO, depth-first, before the remaining seeds.  A
    worker with nothing to claim blocks until a push, a failure or the
    end of the last running task.

    Failure semantics: the first exception raised by any task wins and
    is re-raised after all domains have joined; tasks not yet claimed
    when it is published are skipped, not run.

    Task functions must be thread-safe: they may share state only
    through [Atomic] values or their own synchronization.

    Observability (see docs/OBSERVABILITY.md): [par.tasks], [par.pools],
    [par.task_queue_wait_ns] (push-to-claim latency per task) and
    [par.task_run_ns]. *)

val available_jobs : unit -> int
(** Domains this machine can usefully run, i.e.
    [Domain.recommended_domain_count ()]. *)

type 'a ctx
(** A running worker's handle on the pool, passed to {!fold} tasks. *)

val push : 'a ctx -> 'a -> unit
(** Put a child task on top of the pool's stack; never refused. *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f tasks] applies [f] to every element of [tasks] and
    returns the results in task order.  With [jobs <= 1] (or fewer than
    two tasks) everything runs in the calling domain — the sequential
    reference path.  Otherwise [min jobs (Array.length tasks)] domains
    claim tasks in order.  The first exception raised by any task
    skips all tasks not yet started and is re-raised after all domains
    have joined.
    @raise Invalid_argument when [jobs < 1]. *)

val fold :
  jobs:int ->
  init:(unit -> 'acc) ->
  merge:('acc -> 'acc -> 'acc) ->
  f:('a ctx -> 'acc -> 'a -> 'acc) ->
  'a array ->
  'acc
(** [fold ~jobs ~init ~merge ~f seeds] runs [seeds] (and every task
    {!push}ed while processing them) to completion and combines the
    results.  Each worker threads its own accumulator, seeded by
    [init ()], through every task it happens to execute; after the pool
    quiesces the per-worker accumulators are [merge]d (in worker order)
    on the calling domain.  [f] must therefore be commutative up to
    [merge] (min over costs, sums over counters are).  The calling
    domain is worker 0, and [jobs - 1] more domains start at entry;
    with [jobs = 1] none starts and the tasks run in stack order: the
    sequential reference for the differential tests.  Exception
    semantics match {!map}.
    @raise Invalid_argument when [jobs < 1]. *)

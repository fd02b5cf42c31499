(** A work-stealing domain pool for independent tasks.

    Its users are the family simulation's split-off sub-families
    ({!fold} with {!push}), the daemon's batch items, the fault
    campaign's seeds and the Pareto enumeration's subtrees ({!map}).
    The synthesis branch and bound ({!Explore}) runs on the calling
    domain and does not use it.  Scheduling is three-tiered, in claim
    order:

    + each worker drains its own bounded {!Ws_deque} of dynamically
      pushed children, LIFO — depth-first through the work it is
      already hot on;
    + an empty worker claims the next {e seed} task through a shared
      atomic cursor, so a seed array sorted by priority is consumed
      in order across the whole pool regardless of the domain count;
    + when both are dry it steals, FIFO, from a random victim's deque —
      idle domains drain the oldest outstanding children of whichever
      domain is overloaded.

    Failure semantics: the first exception raised by any task wins and
    is re-raised after all domains have joined; every task claimed after
    the failure is published is cancelled (skipped), not run.

    Task functions must be thread-safe: they may share state only
    through [Atomic] values or their own synchronization.

    Observability (see docs/OBSERVABILITY.md): [par.tasks], [par.pools],
    [par.task_queue_wait_ns] (push-to-claim latency per task),
    [par.task_run_ns], [par.steals] (plus per-worker [par.steals.w<i>]),
    [par.steal_failures] (lost steal races) and [par.deque_overflows]
    (pushes refused on a full deque). *)

val available_jobs : unit -> int
(** Domains this machine can usefully run, i.e.
    [Domain.recommended_domain_count ()]. *)

type 'a ctx
(** A running worker's handle on the pool, passed to {!fold} tasks. *)

val worker_index : 'a ctx -> int
(** The calling worker's slot, in [0 .. jobs - 1]. *)

val push : 'a ctx -> 'a -> bool
(** Offer a child task to the calling worker's own deque (LIFO for the
    owner, FIFO for thieves).  [false] when the deque is full — the
    caller keeps the child and runs it inline; nothing was enqueued. *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f tasks] applies [f] to every element of [tasks] and
    returns the results in task order.  With [jobs <= 1] (or fewer than
    two tasks) everything runs in the calling domain — the sequential
    reference path.  Otherwise [min jobs (Array.length tasks)] domains
    claim tasks best-first through the seed cursor.  The first
    exception raised by any task cancels all tasks not yet started and
    is re-raised after all domains have joined.
    @raise Invalid_argument when [jobs < 1]. *)

val fold :
  ?cancel:(unit -> bool) ->
  jobs:int ->
  init:(unit -> 'acc) ->
  merge:('acc -> 'acc -> 'acc) ->
  f:('a ctx -> 'acc -> 'a -> 'acc) ->
  'a array ->
  'acc
(** [fold ~jobs ~init ~merge ~f seeds] runs [seeds] (and every task
    {!push}ed while processing them) to completion and combines the
    results.  [cancel] (default: never) is polled between task claims
    on every worker: once it returns [true] no further task starts —
    tasks already running are expected to observe the same condition
    through their own cooperative checks — and the accumulators folded
    so far are merged and returned as usual, so a deadline-cancelled
    run still yields what it folded.  Each worker domain threads its
    own accumulator, seeded by [init ()], through every task it happens
    to execute; after the pool quiesces the per-worker accumulators are
    [merge]d (in worker order) on the calling domain.  [f] must
    therefore be commutative up to [merge] (min over costs, sums over
    counters are).  With [jobs = 1] the pool degenerates to an in-order
    loop over [seeds] with a local LIFO stack for pushes: the sequential
    reference for the differential tests.  Exception semantics match
    {!map}.
    @raise Invalid_argument when [jobs < 1]. *)

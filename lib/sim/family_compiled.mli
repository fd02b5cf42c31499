(** Family-based ("featured") simulation of a variant space.

    {!Engine.run} evaluates one flattened configuration at a time, so
    covering a system's whole variant space costs
    O(configurations x scenario).  This module lifts the simulation over
    the space: one run starts from a single {e sub-family} covering
    every configuration (a presence condition over
    {!Variants.Presence}), executes work shared by all members once, and
    splits into smaller sub-families only at the first event where the
    members' behaviors can diverge — when a variant of a still-inactive
    site could activate, or when the environment injects into a site's
    internals.  Configurations whose distinguishing clusters never
    activate under the scenario are never split apart.

    Every sub-family is one run of {!Crt.loop}, the event loop
    {!Compile} runs, on its representative configuration's lowered
    tables.  This module keeps only the presence bookkeeping — split
    detection, fork transplants, narrowing, leaf results — and enters
    the loop through its [settle] and [inject] hooks; processes of
    still-cold sites are skipped through the run's [frozen] mask.  The
    [settle] probe of a still-cold site runs again only when a channel
    its own compiled guards read has changed ({!Crt.run}'s [changed]
    marks), and it allocates nothing per event.

    The report is a {!Family.report}, and every configuration's result
    is byte-identical to what {!Engine.run} (the oracle) and
    {!Compile.run} produce for it — trace entry for entry, final channel
    contents, outcome, firing counts and the fault-plan RNG stream
    included.  The three-way differential harness in
    [test/test_family_compiled.ml] enforces this across generated
    systems, fault plans, seeds, job counts and split policies;
    docs/FAMILY.md states the proof obligation.

    Restrictions (checked, [Invalid_argument]):
    - shared element ids must not collide with any site's ["<site>."]
      prefix, and no site prefix may extend another's — the prefixes are
      how the engine attributes state to sites;
    - fault plans must not carry a degradation policy: flattened
      per-configuration models have no {!Variants.Configuration.t}s to
      fall back to, so a degrading family run would have no
      per-configuration reference. *)

type plan
(** Compiled variant space: presence space, site list, and
    demand-compiled per-representative tables (flattened model, initial
    state, flat channel/process tables).  Thread-safe: worker domains
    and concurrent runs may share one plan. *)

val plan : ?linkage:Variants.Variant_space.linkage -> Variants.System.t -> plan
(** Lowers the system's variant space for family execution.  Site
    prefixes are validated here, once, rather than per run.

    @raise Invalid_argument on prefix collisions (see above) or when the
    configuration count overflows ({!Variants.Variant_space.count}). *)

val plan_key : ?linkage:Variants.Variant_space.linkage -> Variants.System.t -> string
(** The key {!plan} would assign, without compiling — hex digest over
    {!Variants.Canonical.of_system} and the linkage.  Equal keys mean
    the compiled plans are interchangeable. *)

val key : plan -> string
(** Cache key of this plan (see {!plan_key}). *)

val system : plan -> Variants.System.t
val configurations : plan -> int

val run :
  ?policy:Engine.policy ->
  ?limits:Engine.limits ->
  ?overflow:Spi.Semantics.overflow ->
  ?stimuli:Engine.stimulus list ->
  ?firing_budget:(Spi.Ids.Process_id.t * int) list ->
  ?faults:Fault.plan ->
  ?jobs:int ->
  ?split:[ `Narrow | `Full ] ->
  plan ->
  Family.report
(** Simulates every configuration of the plan's variant space in one
    featured pass.  The scenario parameters have {!Engine.run}'s
    semantics and apply uniformly to every configuration; stimuli may
    target shared (unprefixed) channels or a site's internals.

    [split] picks the policy for a stimulus aimed inside a still-cold
    site.  [`Full] forces the site's sub-families apart at injection
    time.  [`Narrow] (the default) first checks whether every member
    declares the target channel identically (kind, capacity, initial
    tokens): if so the channel is marked {e warm} and the write is
    carried live by the whole sub-family — the split happens later, and
    only if one of the site's variants actually activates.  Narrow
    splitting never forks more sub-families than full splitting, and the
    per-configuration results are identical under both policies.

    [jobs] (default 1) runs sub-families as tasks on a {!Synth.Par}
    domain pool: each split pushes the new sub-families onto the pool's
    stack, where idle domains claim them.  Results are identical for
    every job count.

    Registers [sim.family.*] metrics: [runs], [configs], [splits],
    [subfamilies], [shared_firings], [compiles] (plans built), the
    [configs_per_firing] histogram and the [sim.family.run_ns] span.

    Each leaf's makespan is its run's {!Crt.run} [makespan], the time of
    the last completion in the shared trace.

    @raise Invalid_argument on degradation plans; exceptions a
    per-configuration run would raise ({!Spi.Semantics.Channel_overflow},
    [Not_found] on stimuli naming channels absent from a member's model)
    propagate unchanged. *)

(** {1 Summary pass} *)

type config_summary = {
  index : int;
  assignment : Variants.Variant_space.assignment;
  end_time : int;
  firings : int;
  outcome : Engine.outcome;
  reconfiguration_time : int;
}
(** One configuration's scalar results: the {!Engine.result} fields
    {!run} reports for it, without trace or final state. *)

type summary = {
  configs : config_summary array;  (** in enumeration order *)
  splits : int;
  subfamilies : int;
  executed_firings : int;
  shared_firings : int;
  leaves : Family.leaf array;
}
(** {!Family.report} minus traces and final states. *)

val summarize :
  ?deadline_ns:int ->
  ?policy:Engine.policy ->
  ?limits:Engine.limits ->
  ?overflow:Spi.Semantics.overflow ->
  ?stimuli:Engine.stimulus list ->
  ?firing_budget:(Spi.Ids.Process_id.t * int) list ->
  ?faults:Fault.plan ->
  ?jobs:int ->
  ?split:[ `Narrow | `Full ] ->
  plan ->
  summary
(** {!run}'s featured pass with recording off ({!Crt.start}'s
    [record = false]): no trace entry, no consumed-token record and no
    per-member final state is built.  Every field equals the
    corresponding one of {!run}'s report under the same arguments —
    per configuration [end_time], [firings], [outcome] and
    [reconfiguration_time], and the four counters and the leaves —
    and the same [sim.family.*] metrics are registered.  This is what
    a caller that needs no trace should run: the daemon answers both
    simulate shapes from it.

    [deadline_ns] bounds the pass's wall-clock time as in {!Crt.loop};
    every sub-family's loop polls it.

    @raise Crt.Deadline_exceeded once the deadline has passed, and
    whatever {!run} raises under the same arguments. *)

(** AOT specialization of SPI models for the simulator.

    {!compile} validates a loaded model's configuration sets and lowers
    both into a {!plan} with {!Crt.lower}: flat int-indexed
    process/channel/mode tables, activation guards compiled to a
    closure-free predicate over channel indexes, and per-configuration
    dispatch data (reconfiguration latencies, degradation mode masks)
    resolved to dense arrays.  {!run} then drives {!Crt.loop}, the
    event loop {!Family_compiled} shares, over ring-buffered channels
    and the allocation-free {!Heap.Int_heap}: per firing it allocates
    only what the trace itself records.

    The compiled engine is {e observationally identical} to
    {!Engine.run}: same trace (entry for entry, token for token), same
    final state, same outcome and counters, for every policy, fault
    plan, overflow mode, stimulus schedule and firing budget.  Fault
    randomness is drawn through the same {!Fault} calls in the same
    order, so a fault plan's RNG stream — and therefore the whole
    campaign — replays exactly.  The differential qcheck harness in
    [test/test_compile.ml] enforces this equivalence.

    Compile once, run many: a plan is immutable and reusable, so fault
    campaigns and synthesis inner loops pay model lowering once per
    model instead of interpretive dispatch on every firing. *)

type plan
(** A model specialized for simulation.  Immutable; safe to reuse
    across runs (each {!run} builds fresh mutable run state), but not
    across domains concurrently with the same [Fault] plan. *)

val compile :
  ?configurations:Variants.Configuration.t list -> Spi.Model.t -> plan
(** Lowers [model].  Configuration sets are validated here — once — with
    the same rules as {!Engine.run}.

    @raise Invalid_argument if a configuration names a process absent
    from the model or fails {!Variants.Configuration.validate_against}. *)

val run :
  ?policy:Engine.policy ->
  ?limits:Engine.limits ->
  ?overflow:Spi.Semantics.overflow ->
  ?stimuli:Engine.stimulus list ->
  ?firing_budget:(Spi.Ids.Process_id.t * int) list ->
  ?faults:Fault.plan ->
  ?deadline_ns:int ->
  plan ->
  Engine.result
(** Runs the compiled plan.  Accepts exactly the run-time parameters of
    {!Engine.run} (the compile-time parameters — model and
    configurations — are baked into the plan) and returns the same
    {!Engine.result}, so stats, exporters and checkers work unchanged.

    [deadline_ns] bounds the run's wall-clock time as in {!Crt.loop}.
    @raise Crt.Deadline_exceeded once it has passed. *)

val key : plan -> string
(** Structural fingerprint of the model {e and} its configuration sets
    ({!Variants.Canonical} digest): two plans with equal keys simulate
    identically, so a plan cache can be keyed by it. *)

val plan_key :
  ?configurations:Variants.Configuration.t list -> Spi.Model.t -> string
(** The {!key} that {!compile} would assign, computed without compiling
    — what a cache looks up before deciding whether to pay the
    specialization. *)

val model : plan -> Spi.Model.t
val configurations : plan -> Variants.Configuration.t list

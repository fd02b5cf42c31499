(** The compiled event loop, shared by both compiled engines.

    {!Compile} (one configuration per run) and {!Family_compiled} (every
    configuration of a variant space in one featured pass) run the same
    code, defined here once:

    - the model lowering ({!lower}): flat int-indexed process, mode and
      channel tables, activation guards compiled to closure-free
      predicates over dense channel indexes, configuration dispatch data
      resolved to arrays, and the process-index table;
    - the per-run state ({!run}): policy-realized dispatch arrays,
      ring-buffered channels, per-process state, the int-coded
      {!Heap.Int_heap}, the fault state and the injection pool;
    - the step functions: consume, complete, fault-filtered {!inject},
      recover, crash, degrade, and the scheduling sweep with
      configuration dispatch and a [frozen] skip mask, over the run's
      wake set;
    - the event {!loop}.

    A featured run restricted to one product is that product's run, so
    {!Family_compiled} adds only presence bookkeeping, entering the loop
    through its [settle] and [inject] hooks.  The three-way differential
    harness in [test/test_family_compiled.ml] checks both engines
    byte-for-byte against the {!Engine} oracle. *)

(** {1 Channel state} *)

type cstate = {
  mutable buf : Spi.Token.t array;
  mutable head : int;
  mutable count : int;
}
(** Ring-buffered channel contents.  Registers keep at most one token
    (destructive write); queues are FIFO with amortized O(1)
    push/pop. *)

val make_chan : Spi.Token.t list -> cstate
(** A fresh ring holding the given initial tokens, in order. *)

val copy_chan : cstate -> cstate
(** Independent clone with identical contents and layout. *)

val contents : cstate -> Spi.Token.t list
(** FIFO-order contents, head first. *)

(** {1 Compiled guards} *)

type gpred =
  | G_true
  | G_false
  | G_num_at_least of int * int  (** channel index, threshold *)
  | G_first_has_tag of int * Spi.Tag.t
  | G_and of gpred * gpred
  | G_or of gpred * gpred
  | G_not of gpred
      (** Activation guards over channel indexes.  A channel the model
          does not declare compiles to index -1: it holds no tokens and
          no tags, exactly like the interpreter's view of an absent
          channel. *)

val compile_pred :
  ix_of:(Spi.Ids.Channel_id.t -> int) -> Spi.Predicate.t -> gpred

val eval : cstate array -> gpred -> bool
(** Evaluates a compiled guard against the live channel rings. *)

(** {1 Event coding}

    [4*k] injection #k, [4*p+1] completion of process [p], [4*p+2]
    recovery of process [p], [4*k+3] scripted crash #k — dispatch on
    [v land 3], operand is [v lsr 2]. *)

val ev_complete : int -> int
val ev_recover : int -> int

(** {1 Lowering} *)

type crule
type cmode
type cconf
(** Lowered activation rules, modes and configuration sets. *)

type cproc = {
  pr_pid : Spi.Ids.Process_id.t;
  pr_source : bool;  (** no input channels: default firing budget 0 *)
  pr_rules : crule array;
  pr_modes : cmode array;
  pr_conf : cconf option;
}

type table = {
  model : Spi.Model.t;
  procs : cproc array;  (** in model process order *)
  proc_index : int Spi.Ids.Process_id.Tbl.t;
  chan_ids : Spi.Ids.Channel_id.t array;  (** in model channel order *)
  chan_register : bool array;
  chan_cap : int array;  (** -1 = unbounded *)
  chan_initial : Spi.Token.t list array;
  chan_index : int Spi.Ids.Channel_id.Tbl.t;
  chan_reader : int array;
      (** per channel: index of its one reader ({!Spi.Model.reader_of}),
          -1 when no process reads it *)
}
(** A lowered model.  Immutable, so runs and domains may share it. *)

val lower : ?configurations:Variants.Configuration.t list -> Spi.Model.t -> table
(** Lowers [model] with the configuration sets of its processes
    (default none).  The sets are not validated here. *)

val chan_ix : table -> Spi.Ids.Channel_id.t -> int
(** Dense index of a channel; -1 when the model does not declare it. *)

(** {1 Run state} *)

type dispatch
(** One policy's realization of every interval of a table. *)

val dispatch : Engine.policy -> table -> dispatch

type pstate = {
  mutable busy : bool;
  mutable budget : int;  (** negative = unlimited *)
  mutable conf_ix : int;
      (** -1 none; -2 a fallback target outside the configuration set *)
  mutable conf_id : Spi.Ids.Config_id.t option;
  mutable allowed : bool array option;  (** degradation mask over modes *)
  mutable recover_at : int;
  mutable slot_mode : int;  (** the one in-flight completion's mode *)
  mutable slot_started : int;
  mutable slot_payload : int option;
  mutable slot_consumed : (Spi.Ids.Channel_id.t * Spi.Token.t list) list;
      (** empty unless the run records *)
}

val budget :
  firing_budget:(Spi.Ids.Process_id.t * int) list ->
  Spi.Ids.Process_id.t ->
  source:bool ->
  int
(** A process's firing budget: its entry in [firing_budget], else 0 for
    a source and unlimited (-1) otherwise — {!Engine.run}'s rule. *)

val fresh_pstate :
  firing_budget:(Spi.Ids.Process_id.t * int) list -> cproc -> pstate

type pool
(** Pending injections, indexed by the [ev_inject] operand.  Degradation
    appends recovery stimuli; family runs reject degradation, so their
    forks share one pool that never grows. *)

type run = {
  tbl : table;
  dsp : dispatch;
  chans : cstate array;
  pstates : pstate array;
  heap : Heap.Int_heap.t;
  fstate : Fault.state option;
  overflow : Spi.Semantics.overflow;
  pool : pool;
  crashes : Spi.Ids.Process_id.t array;  (** scripted crash #k's process *)
  record : bool;  (** keep the trace (see {!start}) *)
  mutable frozen : bool array;
      (** per process: skipped by the sweep.  Change it with
          {!set_frozen}, which wakes every process. *)
  woken : bool array;  (** per process: in the wake set *)
  wake : int array;  (** the wake set: its first [nwake] entries *)
  mutable nwake : int;
  changed : bool array;
      (** per channel: written or consumed from since the mark was last
          cleared.  Every write and consumption sets it; the loop never
          clears it.  {!Family_compiled} clears the marks of the
          channels its cold-site probes watch. *)
  mutable trace : Trace.entry list;  (** reversed; empty unless [record] *)
  mutable firings : int;
  mutable now : int;
  mutable reconf_time : int;
  mutable makespan : int;
      (** time of the latest completion, 0 before the first: the last
          [Completed] entry's time when recording *)
}
(** One run of a table: {!Engine.run}'s state, int-coded. *)

val start :
  record:bool ->
  overflow:Spi.Semantics.overflow ->
  stimuli:Engine.stimulus list ->
  firing_budget:(Spi.Ids.Process_id.t * int) list ->
  ?faults:Fault.plan ->
  table ->
  dispatch ->
  run
(** Fresh run state at time 0: initial channel contents, fresh process
    states, nothing frozen, the stimuli and the fault plan's scripted
    crashes scheduled (in that order).

    With [record = false] the run keeps no trace: the loop emits no
    {!Trace.entry}, keeps no consumed tokens in [slot_consumed] and
    builds no completed-firing record.  Channels, heap, process and
    fault state, [firings], [now], [reconf_time] and [makespan] step
    exactly as when recording. *)

val fork :
  run ->
  tbl:table ->
  dsp:dispatch ->
  chans:cstate array ->
  pstates:pstate array ->
  heap:Heap.Int_heap.t ->
  frozen:bool array ->
  run
(** A family split's sibling of a run: the given table, dispatch,
    channels, process states, heap and [frozen] mask; a copy of the
    fault state; the run's pools, [record] flag and counters
    ([firings], [now], [reconf_time], [makespan]) and trace.  The
    sibling gets its own empty wake set and clear change marks, since
    siblings run on other domains; {!loop} wakes every process on
    entry. *)

val set_frozen : run -> bool array -> unit
(** Replaces the [frozen] mask and wakes every process, so the next
    sweep visits all of them. *)

(** {1 Stepping} *)

val inject : run -> int -> Spi.Ids.Channel_id.t -> Spi.Token.t -> unit
(** [inject r time cid tok] delivers an environment token through the
    fault plan's channel filter (drop, corrupt, duplicate).
    @raise Not_found when the model does not declare [cid]. *)

exception Deadline_exceeded
(** The wall-clock deadline given to {!loop} passed. *)

val loop :
  ?settle:(unit -> unit) ->
  ?inject:(int -> Spi.Ids.Channel_id.t -> Spi.Token.t -> unit) ->
  ?deadline_ns:int ->
  limits:Engine.limits ->
  run ->
  Engine.outcome
(** Runs [r] from [r.now] to quiescence or a limit: a sweep, then one
    event per step (injection, completion, recovery or crash) followed
    by a sweep.  [settle] (default: nothing) runs before every sweep;
    [inject] (default: {!inject} on [r]) receives every pending
    injection.  Both are built once per run, not per event.  On
    quiescence the trace ends with [Quiescent].

    A sweep visits only the processes in the run's wake set, in
    process-index order, and empties the set.  The first sweep visits
    every process.  After that, a channel write wakes the channel's
    reader, a completion or recovery that clears a process's [busy]
    wakes that process, and {!set_frozen} wakes every process.
    Consumption, crashes and degradation wake nobody.  This rests on
    {!Spi.Model.build}'s invariant: a channel has at most one reader,
    and the channels a process's guards read count as its inputs.  So
    an event cannot touch another process's guard except by writing to
    it.  Consumption changes only the consumer's inputs, and the
    consumer is then busy.  A crash only disables.  A degradation
    always backs the process off, so the recovery wakes it.  Every
    process the full sweep over all processes would start is therefore
    woken, and the woken ones act in the same index order, with the
    same fault draws and heap sequence numbers: the oracle's firings
    and trace.

    [deadline_ns] is an absolute {!Obs.Clock.now_ns} time.  The clock
    is read on entry and then once every 1024 events, {!Synth.Explore}'s
    poll cadence; a run without a deadline never reads it.
    @raise Deadline_exceeded once the deadline has passed: on entry,
    before anything runs, when it already has. *)

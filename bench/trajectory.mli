(** Parsing and regression-gating of the [bench-explore/v1] perf
    trajectory (the JSON array that [bench/main.exe explore-json]
    appends to, see docs/BENCH.md).

    The gate compares the freshest record against the last earlier
    record over the same workload set: a CI run first appends a record
    for the current tree, then calls {!check_file}, so the baseline is
    the last committed record of the same shape. *)

type run = { jobs : int; wall_s : float; cost : int option }

type workload = {
  w_name : string;
  runs : run list;
  speedup : float;  (** jobs=1 wall time over max-jobs wall time *)
  sim_speedup : float option;
      (** the ["sim"] object's compiled-vs-interpreted speedup; [None]
          for records written before the field existed *)
  family_compiled_speedup : float option;
      (** the ["family_compiled"] object's one-featured-pass
          ({!Sim.Family_compiled}) vs N-per-config-passes speedup;
          [None] for records without it.  Records written while an
          interpreted family engine existed also carry a ["family"]
          object, which nothing reads any more. *)
}

type record = {
  label : string;  (** empty when the record carries no label *)
  max_jobs : int;
  aggregate_speedup : float;
  workloads : workload list;
}

val record_of_json : Obs.Json.t -> (record, string) result
val records_of_string : string -> (record list, string) result

val check :
  ?tolerance:float ->
  baseline:record option ->
  fresh:record ->
  unit ->
  (string, string list) result
(** Gate one fresh record against an optional baseline.  Fails when

    - a workload's optimal cost differs across job counts (parallel
      exploration must be a pure speedup, never a different answer), or
    - a workload both records carry by name reports a different optimal
      cost in each (applied to every comparison), or
    - the fresh aggregate max-jobs speedup has regressed below
      [(1 - tolerance)] of the baseline's ([tolerance] defaults to
      [0.3], i.e. a 30% regression budget for machine noise).  A fresh
      record whose label starts with [rebaseline-] skips this arm only:
      it marks a change in what the jobs=1 baseline measures, and the
      record after it is gated against it, or
    - a per-field speedup (["sim"], ["family_compiled"]) regressed past
      the same budget — compared only when both records carry the field
      over the same workload set, so mixed-version trajectories (records
      from before the field existed) skip the gate rather than fail.

    [Ok summary] describes what was checked; [Error failures] lists
    every violated condition. *)

val check_file : ?tolerance:float -> string -> (string, string list) result
(** Load a trajectory file and run {!check} with the last record as
    fresh.  The baseline is the last earlier record with the same
    workload set; when there is none, the record right before the fresh
    one (if any), so the cost arm still compares shared workloads by
    name. *)

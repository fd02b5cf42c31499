(** Reports of family-based ("featured") simulation.

    {!Family_compiled.run} evaluates a variant system's whole
    configuration space in one featured pass: shared prefixes execute
    once, and the run splits into sub-families only where members can
    diverge.  This module holds what that pass returns — one
    {!config_run} per configuration, the finished sub-families
    ({!leaf}) and the sharing counters — plus the read-outs every caller
    needs: per-configuration makespans and deadline headroom, the
    per-configuration timeline export and a one-line summary.

    Every configuration's [result] is exactly what {!Engine.run} produces
    on that configuration's flattened model; the differential harness in
    [test/test_family_compiled.ml] checks it against {!Engine} (the
    oracle) and {!Compile}. *)

type config_run = {
  index : int;  (** position in {!Variants.Variant_space.enumerate} order *)
  assignment : Variants.Variant_space.assignment;
  result : Engine.result;
      (** identical to [Engine.run] on this configuration's flattened
          model under the same scenario *)
}

type leaf = {
  leaf_members : int list;
      (** configuration indices the leaf covers, ascending *)
  leaf_makespan : int;
      (** end time of the leaf's last completion (0 when nothing
          completed) — the same number for every member, computed once
          from the shared trace *)
}
(** A sub-family that ran to its outcome. *)

type report = {
  runs : config_run array;  (** one per configuration, in index order *)
  splits : int;  (** sub-family forks taken *)
  subfamilies : int;  (** leaves: distinct executions that finished *)
  executed_firings : int;
      (** firings the family engine actually performed, summed over all
          sub-families *)
  shared_firings : int;
      (** of those, firings performed while covering two or more
          configurations — the work a per-configuration sweep would have
          repeated *)
  leaves : leaf array;
      (** the finished sub-families, ordered by smallest member index
          (independent of [jobs]); their member lists partition the
          configuration indices *)
}

val makespans : report -> (int * int) array
(** [(index, makespan)] per configuration — the end time of the last
    completion in its trace (0 when nothing completed).  The basis of
    per-configuration deadline headroom: [deadline - makespan]. *)

val headroom : deadline:int -> report -> (int * int) array
(** [(index, deadline - makespan)] per configuration, computed once per
    leaf sub-family from {!leaf.leaf_makespan} and fanned out to the
    leaf's members — agreeing with [deadline - snd] over {!makespans}
    entry for entry, at the cost of one trace scan per leaf instead of
    one per configuration.  Negative headroom means the configuration
    misses the deadline. *)

val emit_timeline :
  Obs.Trace_event.sink -> Variants.System.t -> report -> unit
(** Exports every configuration's schedule into one trace file using
    the family lane convention: configuration [index] becomes process
    group [pid = index + 1], named after its assignment, with
    {!Timeline.emit}'s usual per-process lanes inside.  Shared prefixes
    therefore appear as identical lanes across the groups; the groups
    diverge where the run split. *)

val pp_summary : Format.formatter -> report -> unit

(**/**)

(* Site-prefix bookkeeping used by {!Family_compiled} to attribute
   state to still-cold variant sites. *)

val prefix_of : Spi.Ids.Interface_id.t -> string
val has_prefix : string -> string -> bool

val cold_site_of :
  Spi.Ids.Interface_id.t list -> string -> Spi.Ids.Interface_id.t option

val validate_prefixes :
  Variants.System.t -> Spi.Ids.Interface_id.t list -> unit

(**/**)

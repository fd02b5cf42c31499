(** Persistent warm-start bounds for {!Explore}.

    Bridges the exploration store ({!Store.Keyed}) and the explorer:
    solved problems are remembered under canonical problem hashes, and a
    later solve of the same — or a structurally overlapping — problem
    replays the stored binding as {!Explore.solve}'s [warm] incumbent.
    Records are advisory by construction: a warm binding is re-validated
    and the search still proves optimality, so a stale or colliding
    record can cost time, never correctness.

    Two key granularities:
    - the {e problem} key covers the technology library, the capacity
      and every application — an exact-repeat hit;
    - one {e application} key per app covers that app's processes and
      their technology entries only, so after a small model edit the
      untouched applications still contribute their old bindings, merged
      into a partial warm start. *)

val problem_key : ?capacity:int -> Tech.t -> App.t list -> string
(** Canonical hash of the full synthesis problem ([capacity] defaults to
    {!Schedule.default_capacity}, as in {!Explore.solve}). *)

val app_key : ?capacity:int -> Tech.t -> App.t -> string
(** Canonical hash of one application's subproblem: its process set and
    the technology entries (and processor cost) restricted to it. *)

type hit = {
  key : string;  (** the problem key, hashed once *)
  warm : Binding.t option;  (** the warm start {!warm_binding} returns *)
  exact : Obs.Json.t option;
      (** the stored problem record, when the exact problem hit *)
}

val lookup :
  ?capacity:int -> Store.Keyed.t -> Tech.t -> App.t list -> hit
(** One store lookup for a solve: the problem key, the warm start, and
    the exact record it came from. *)

val warm_binding :
  ?capacity:int -> Store.Keyed.t -> Tech.t -> App.t list -> Binding.t option
(** The stored binding for the exact problem when present; otherwise the
    union of the per-application hits (left-biased merge), when any.
    The result may cover only part of the problem — {!Explore.solve}'s
    warm validation completes and checks it. *)

val remember :
  ?capacity:int -> ?hit:hit -> Store.Keyed.t -> Tech.t -> App.t list ->
  Explore.solution -> unit
(** Journals the solution under the problem key and under every
    application key (each app's record restricted to its processes), as
    one {!Store.Keyed.put}: one write and one fsync, and no record
    for a key that already holds the same value.  [hit] is the
    {!lookup} that warmed this solve: its key is reused, and when the
    exact record already holds this answer (same cost and binding, not
    degraded) nothing is hashed or written.  The per-application records
    then keep the binding of the last problem solved, not of the last
    one answered; both are only warm seeds. *)

val binding_to_json : Binding.t -> Obs.Json.t
val binding_of_json : Obs.Json.t -> Binding.t option
(** [None] when the JSON is not a list of [[pid, "hw"|"sw"]] pairs. *)

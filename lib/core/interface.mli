(** Interface operations (Def. 2).

    An interface is a tuple (I, O, Γ): input ports, output ports, and
    the set of associated clusters, each matching the interface's port
    signature.  Each function variant of the represented system part is
    exactly one cluster of the interface. *)

type t = Structure.interface

val make :
  ?selection:Structure.selection ->
  ports:Port.t list ->
  clusters:Cluster.t list ->
  string ->
  t

val id : t -> Spi.Ids.Interface_id.t
val ports : t -> Port.t list
val clusters : t -> Cluster.t list
val selection : t -> Structure.selection option
val cluster_ids : t -> Spi.Ids.Cluster_id.t list
val find_cluster : Spi.Ids.Cluster_id.t -> t -> Cluster.t option

val get_cluster : Spi.Ids.Cluster_id.t -> t -> Cluster.t
(** @raise Not_found *)

val variant_count : t -> int

type error =
  | No_clusters
  | Duplicate_port of Spi.Ids.Port_id.t
      (** the interface declares a port id twice; no cluster signature is
          compared against its ports *)
  | Duplicate_cluster of Spi.Ids.Cluster_id.t
  | Signature_mismatch of Spi.Ids.Cluster_id.t
      (** the cluster's ports differ from the interface's (Def. 2) *)
  | Cluster_error of Spi.Ids.Cluster_id.t * Cluster.error
  | Selection_unknown_cluster of Spi.Ids.Rule_id.t * Spi.Ids.Cluster_id.t
  | Selection_latency_unknown_cluster of Spi.Ids.Cluster_id.t
  | Selection_initial_unknown of Spi.Ids.Cluster_id.t

val pp_error : Format.formatter -> error -> unit

val validate : t -> error list
val validate_exn : t -> unit

val ambiguous_selection_pairs : t -> (Spi.Ids.Rule_id.t * Spi.Ids.Rule_id.t) list
(** Selection rule pairs not provably disjoint — candidates for
    nondeterministic cluster selection. *)

val pp : Format.formatter -> t -> unit

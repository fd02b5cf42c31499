(** Cluster operations (Def. 1).

    A cluster is a tuple (I, O, P, C, Θ, E): input ports, output ports,
    embedded processes, embedded channels, embedded interfaces and
    edges.  Edges are represented implicitly — embedded processes
    reference internal channels or port placeholder channels
    (see {!Port.channel_of}).  This module validates the definition's
    structural rules and instantiates clusters into a host model. *)

type t = Structure.cluster

val make :
  ?channels:Spi.Chan.t list ->
  ?sub_sites:Structure.site list ->
  ports:Port.t list ->
  processes:Spi.Process.t list ->
  string ->
  t

val id : t -> Spi.Ids.Cluster_id.t
val ports : t -> Port.t list
val input_ports : t -> Spi.Ids.Port_id.Set.t
val output_ports : t -> Spi.Ids.Port_id.Set.t

type error =
  | Duplicate_port of Spi.Ids.Port_id.t
      (** the cluster declares a port id twice; no other check of the
          cluster runs, since they all need its port sets *)
  | Port_channel_declared of Spi.Ids.Channel_id.t
      (** an internal channel reuses a port's placeholder name *)
  | Undeclared_channel of Spi.Ids.Process_id.t * Spi.Ids.Channel_id.t
      (** a process references a channel that is neither internal nor a
          port *)
  | Input_port_fanout of Spi.Ids.Port_id.t * Spi.Ids.Process_id.t list
      (** out-degree of an input port exceeds one *)
  | Output_port_fanin of Spi.Ids.Port_id.t * Spi.Ids.Process_id.t list
      (** in-degree of an output port exceeds one *)
  | Input_port_written of Spi.Ids.Port_id.t * Spi.Ids.Process_id.t
  | Output_port_read of Spi.Ids.Port_id.t * Spi.Ids.Process_id.t
  | Internal_model_error of Spi.Model.error
  | Sub_site_unwired of Spi.Ids.Interface_id.t * Spi.Ids.Port_id.t
      (** an embedded interface's port has no wiring entry *)
  | Sub_site_bad_target of Spi.Ids.Interface_id.t * Spi.Ids.Channel_id.t
      (** a wiring entry targets a channel that is neither internal nor a
          port placeholder of the enclosing cluster *)

val pp_error : Format.formatter -> error -> unit

val validate : t -> error list
(** Empty list when the cluster is well-formed.  Sub-interface clusters
    are validated recursively. *)

val validate_exn : t -> unit
(** @raise Invalid_argument with rendered errors. *)

val processes_closure : t -> Spi.Process.t list
(** Embedded processes including those of every sub-interface cluster
    (all variants).  Used by cost enumeration. *)

type instance = {
  inst_processes : Spi.Process.t list;
  inst_channels : Spi.Chan.t list;
}

val instantiate :
  prefix:string ->
  port_channels:(Spi.Ids.Port_id.t * Spi.Ids.Channel_id.t) list ->
  sub_choice:(Spi.Ids.Interface_id.t -> Spi.Ids.Cluster_id.t) ->
  t ->
  instance
(** Produces the concrete processes and channels of this cluster wired
    to the host channels given by [port_channels].  Internal process and
    channel ids are prefixed with [prefix ^ "."] to keep multiple
    instantiations disjoint.  Sub-interfaces are flattened recursively
    using [sub_choice] to pick their variant.
    @raise Invalid_argument when a port binding is missing, or when
    [sub_choice] returns an unknown cluster. *)

val latency_paths : t -> Interval.t
(** Interval of accumulated latency along the longest process chain
    through the cluster ([lo] summed along the same worst path as
    [hi]); the basic building block of parameter extraction.  Cyclic
    clusters fall back to the sum of all process latencies. *)

val port_consumption : t -> Spi.Ids.Port_id.t -> Interval.t
(** Hull of tokens consumed from an input port per activation of the
    reading process. *)

val port_production : t -> Spi.Ids.Port_id.t -> Interval.t

val port_production_tags : t -> Spi.Ids.Port_id.t -> Spi.Tag.Set.t
(** Union of the tags the cluster's processes attach to tokens produced
    on the port. *)

val entry_process : t -> Spi.Process.t option
(** The process reading the first input port (in port declaration
    order) that has a reader; parameter extraction derives one abstract
    mode per entry-process mode. *)

val pp : Format.formatter -> t -> unit

(** The SPI model graph.

    A system is a set of concurrent processes communicating via
    unidirectional channels; the model is a directed bipartite graph of
    process nodes and channel nodes (paper, Section 2).  This module
    assembles process and channel declarations, validates the structural
    rules (each channel has at most one writer and one reader; every
    referenced channel is declared; ids are unique) and offers graph
    views and queries used by analysis, extraction and simulation. *)

type node = P of Ids.Process_id.t | C of Ids.Channel_id.t

module Node : Graphlib.Digraph.ORDERED with type t = node
module Graph : Graphlib.Digraph.S with type node = node

type error =
  | Duplicate_process of Ids.Process_id.t
  | Duplicate_channel of Ids.Channel_id.t
  | Unknown_channel of Ids.Process_id.t * Ids.Channel_id.t
      (** A process reads or writes a channel that is not declared. *)
  | Multiple_writers of Ids.Channel_id.t * Ids.Process_id.t list
  | Multiple_readers of Ids.Channel_id.t * Ids.Process_id.t list

val pp_error : Format.formatter -> error -> unit

type t

val build : processes:Process.t list -> channels:Chan.t list -> (t, error list) result
val build_exn : processes:Process.t list -> channels:Chan.t list -> t
(** @raise Invalid_argument with rendered errors. *)

val processes : t -> Process.t list
val channels : t -> Chan.t list
val find_process : Ids.Process_id.t -> t -> Process.t option
val find_channel : Ids.Channel_id.t -> t -> Chan.t option

val get_process : Ids.Process_id.t -> t -> Process.t
(** @raise Not_found *)

val get_channel : Ids.Channel_id.t -> t -> Chan.t
(** @raise Not_found *)

val writer_of : Ids.Channel_id.t -> t -> Ids.Process_id.t option
val reader_of : Ids.Channel_id.t -> t -> Ids.Process_id.t option

val unread_channels : t -> Ids.Channel_id.Set.t
(** Channels with no reading process (model-boundary outputs). *)

val unwritten_channels : t -> Ids.Channel_id.Set.t
(** Channels with no writing process (model-boundary inputs: they can
    only deliver their initial tokens or tokens injected by the
    simulator's environment scripts). *)

val source_processes : t -> Ids.Process_id.Set.t
(** Processes with no input channels. *)

val to_graph : t -> Graph.t
(** The bipartite graph: edge [P p -> C c] when [p] writes [c] and
    [C c -> P p] when [p] reads [c]. *)

val union : t -> t -> (t, error list) result
(** Disjoint union; shared channel ids must be declared identically in at
    most one side's processes' referencing (validation reruns). *)

val node_label : node -> string
val pp_stats : Format.formatter -> t -> unit

(** Interface and cluster ports.

    Ports are the fixed connection points through which clusters
    communicate with the rest of the model (Def. 1/2).  Inside a cluster,
    a port is referenced as a {e placeholder channel} carrying the port's
    name; {!channel_of} performs that embedding, and instantiation
    (in {!Cluster}) renames placeholder channels to the concrete host
    channels an interface site is wired to. *)

type direction = Input | Output

type t

val input : string -> t
val output : string -> t
val make : direction -> Spi.Ids.Port_id.t -> t
val id : t -> Spi.Ids.Port_id.t
val direction : t -> direction
val is_input : t -> bool
val is_output : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val channel_of : Spi.Ids.Port_id.t -> Spi.Ids.Channel_id.t
(** The placeholder channel id embedded processes use to read from or
    write to the port. *)

val signature : t list -> Spi.Ids.Port_id.Set.t * Spi.Ids.Port_id.Set.t
(** Input and output port-id sets of a port list.
    @raise Invalid_argument on duplicate port ids. *)

val duplicates : t list -> Spi.Ids.Port_id.t list
(** The port ids a list declares more than once, each once, in the
    order of their second declaration.  {!signature} raises exactly
    when this is not empty. *)

val same_signature : t list -> t list -> bool
(** Port-wise compatibility: equal input sets and equal output sets
    (Def. 2: "each cluster matches the interface in terms of input and
    output ports"). *)

val pp : Format.formatter -> t -> unit

(** The variant space of a system.

    A system may contain several variant sets whose selection is related
    or independent (Section 1).  This module enumerates variant
    combinations, optionally under {e linkage groups}: interfaces in the
    same group must select variants at the same position of their
    cluster lists (e.g. the input and output standard of a multi-media
    device move together). *)

type assignment = (Spi.Ids.Interface_id.t * Spi.Ids.Cluster_id.t) list
(** One cluster per site, depth-first in site order: each top-level
    site's pair is followed by the pairs of the embedded interfaces its
    chosen cluster contains (recursively), before the next top-level
    site. *)

type linkage = Spi.Ids.Interface_id.t list list
(** Groups of interfaces whose selections are related.  Interfaces
    absent from every group are independent. *)

val independent_count : System.t -> int
(** Product of the sites' top-level variant counts (nested sub-site
    choices not included).
    @raise Invalid_argument if the product overflows an [int]. *)

val count : ?linkage:linkage -> System.t -> int
(** [List.length (enumerate ?linkage system)], computed without
    materializing the assignments.
    @raise Invalid_argument if the count overflows an [int] or a linkage
    group names an unknown interface. *)

val enumerate : ?linkage:linkage -> System.t -> assignment list
(** All admissible assignments, hierarchically embedded interfaces
    included: a cluster with sub-sites contributes the product of its
    nested options, exactly the combinations {!Flatten.applications}
    derives.  With linkage, grouped interfaces share the top-level
    variant index (their nested choices below remain independent); a
    group whose interfaces have different variant counts is truncated
    to the minimum.
    @raise Invalid_argument if a linkage group names an unknown
    interface, or if the configuration count overflows an [int] (the
    space is refused before any assignment is built). *)

val to_choice : assignment -> Flatten.choice
val pp_assignment : Format.formatter -> assignment -> unit

(** A durable last-wins key/value index over {!Journal}.

    Keys are canonical-hash strings (see {!Variants.Canonical}), values
    arbitrary JSON.  A {!put} appends one journal record per key
    whose value changed, in one write and one fsync, and updates the
    in-memory index; {!open_store} replays the journal and folds the
    records last-wins, so the index survives crashes with at most the
    torn tail lost.  Journal records that are intact but not key/value
    shaped (a future schema, say) are skipped, not fatal. *)

type t

val open_store : ?fsync:bool -> string -> t * Variants.Diagnostic.t option
(** Replays [path] (missing file = empty store) and opens it for
    appending.  The diagnostic, when present, describes the dropped torn
    tail — informational: the store is open and consistent either way. *)

val find : t -> string -> Obs.Json.t option

val put : t -> (string * Obs.Json.t) list -> unit
(** Journals the (key, value) pairs whose key does not already hold an
    equal value, with one {!Journal.append}, then updates the index.
    Pairs that would rewrite an identical record are skipped, so a
    repeated call leaves the journal byte-identical.  On a write error
    the index is unchanged. *)

val mem : t -> string -> bool
val size : t -> int
(** Distinct live keys (not journal records). *)

val path : t -> string
val close : t -> unit

(** Crash-safe append-only journal.

    One record per line:

    {v <checksum:16 hex> <length:decimal> <payload>\n v}

    where [payload] is a minified [Obs.Json] value (JSON escapes every
    raw newline, so a record is always exactly one line), [length] is
    the payload's byte length and [checksum] is the 64-bit
    {!Variants.Canonical.hash_string} of the payload.  Appends are a
    single [write] followed (by default) by an [fsync], so after a crash
    the file is a sequence of intact records plus at most one torn tail
    — which {!replay} detects (missing newline, length mismatch, or
    checksum mismatch), reports as a structured {!Variants.Diagnostic},
    and excludes.  Recovery truncates the tail so subsequent appends
    start on a record boundary.

    The journal stores whole values, never diffs, and replay folds
    last-wins — compaction is a rewrite of the live index, not a
    recovery-time concern. *)

type replay = {
  records : Obs.Json.t list;  (** intact records, file order *)
  valid_bytes : int;  (** byte offset of the end of the last intact record *)
  tail : Variants.Diagnostic.t option;
      (** [Some d] when trailing bytes after [valid_bytes] were not an
          intact record: a torn write, a corrupted record, or garbage.
          Everything before [valid_bytes] is unaffected. *)
}

val replay : string -> replay
(** Reads the journal at [path].  A missing file is an empty journal —
    not an error, the store starts cold. *)

type writer

val open_writer : ?fsync:bool -> string -> writer
(** Opens [path] for appending, creating it if missing and truncating
    any torn tail left by a crash (a {!replay} runs internally to find
    the last record boundary).  [fsync] (default [true]) makes every
    {!append} durable before it returns; turning it off is for tests
    and bulk rebuilds only.
    @raise Unix.Unix_error as [open]/[ftruncate] do. *)

val append : writer -> Obs.Json.t list -> unit
(** Serializes and frames each record, writes the frames with one
    [write] and (by default) fsyncs once.  A record's frame does not
    depend on the records written with it, and a crash mid-write leaves
    a prefix of the records plus at most one torn record, which
    {!replay} drops as usual.  [store.journal_appends] counts records;
    an empty list writes nothing.
    @raise Unix.Unix_error when the write fails; the journal is no
    worse than before the call (a partial write is next startup's torn
    tail). *)

val close : writer -> unit

val path : writer -> string

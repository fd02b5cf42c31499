(** Structured error payloads for the variant-structure operations.

    The derivation operations ({!Flatten}, {!Extraction}) used to raise
    exceptions carrying bare strings; their payload is now a diagnostic
    that keeps the offending element's id machine-readable, so callers
    (the linter, the CLI) can point at the culprit without parsing
    messages.  Each module also offers [Result]-returning wrappers
    around its raising entry points. *)

type t = {
  subject : string option;
      (** id of the offending element (interface, cluster, process …),
          when one can be singled out *)
  message : string;
}

val make : ?subject:string -> string -> t

val msgf :
  ?subject:string -> ('a, Format.formatter, unit, t) format4 -> 'a
(** [msgf ?subject fmt …] formats a message into a diagnostic. *)

val subject : t -> string option
val message : t -> string

val to_string : t -> string
(** ["<subject>: <message>"], or just the message without a subject. *)

val pp : Format.formatter -> t -> unit

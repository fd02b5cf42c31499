(** The [serve/v1] wire protocol.

    Line-delimited JSON over a Unix-domain stream socket: each request
    is one minified JSON object terminated by ["\n"], each response one
    JSON object on one line.  See docs/SERVE.md for the full field
    reference; this module is the single source of truth for parsing
    and encoding, shared by the daemon and the client. *)

type op =
  | Ping
  | Stats
  | Metrics
      (** live telemetry: the [obs/v1] snapshot, the Prometheus text
          exposition and the [series/v1] rolling rates/quantiles in one
          response — see docs/OBSERVABILITY.md *)
  | Shutdown  (** graceful: drain queued work, then exit *)
  | Synthesize of { model : string; tech : string; capacity : int option }
  | Pareto of { model : string; tech : string; capacity : int option }
  | Simulate of {
      model : string;
      until : int option;
      compiled : bool;
      family : bool;
    }
      (** Both shapes run one featured summary pass
          ({!Sim.Family_compiled.summarize}) on the system's
          {!Sim.Family_compiled} plan, cached daemon-side by
          {!Sim.Family_compiled.plan_key}.  [family] (default [false])
          answers one run per configuration plus the sharing summary;
          without it the answer is one run per application, as
          {!Variants.Flatten.applications} orders them.  [compiled]
          (default [false] on the wire) is accepted and ignored: every
          response reports [compiled = true] *)
  | Batch of request list
      (** sub-requests run on a domain pool; nesting depth 1 *)

and request = {
  id : string option;
      (** idempotency key: a repeated [id] replays the cached response
          instead of recomputing *)
  deadline_ms : int option;
      (** budget from {e admission}, queue wait included *)
  jobs : int option;
      (** lowers the daemon's domain count for this request; capped at
          the count the request would otherwise run on *)
  trace : bool;
      (** when true (default [false] on the wire), the response carries
          a ["trace"] field: the request's [rtrace/v1] span tree *)
  op : op;
}

val request_of_json : Obs.Json.t -> (request, string) result
(** Validates the schema tag when present and rejects unknown [op]s and
    nested batches with a message suitable for an error response. *)

val request_to_json : request -> Obs.Json.t

val parse_request : string -> (request, string) result
(** One wire line (sans newline) to a request. *)

(** Response construction — every response carries ["schema"] and
    ["status"], plus ["id"] when the request had one. *)

val ok : ?id:string -> (string * Obs.Json.t) list -> Obs.Json.t
(** [status = "ok"]; the fields are appended. *)

val error : ?id:string -> string -> Obs.Json.t
(** [status = "error"] with a ["message"]. *)

val too_large : ?id:string -> limit:int -> string -> Obs.Json.t
(** [status = "error"] with [error = "too_large"], the [limit] that was
    exceeded and a ["message"]: the structured rejection of a request
    line or variant space over a fixed size cap. *)

val deadline_exceeded : ?id:string -> string -> Obs.Json.t
(** [status = "error"] with [error = "deadline_exceeded"] and a
    ["message"]: the structured answer to a request whose deadline
    ([deadline_ms] or the daemon's default) passed before its work
    finished, for operations with no partial answer to give
    (simulate; synthesize answers a degraded incumbent instead). *)

val overloaded :
  ?id:string -> queue_depth:int -> queue_limit:int -> retry_after_ms:int ->
  unit -> Obs.Json.t
(** [status = "overloaded"]: the structured load-shed rejection. *)

val status_of_response : Obs.Json.t -> string
(** ["ok"], ["error"], ["overloaded"] — or ["invalid"] when the line is
    not a [serve/v1] response. *)

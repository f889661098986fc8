(** A blocking line-oriented client for the daemon, shared by the CLI's
    [request] subcommand, the smoke tests and the bench harness. *)

type t

val connect : socket:string -> (t, Error.t) result
(** A connection whose reads wait for an answer without a deadline. *)

val set_timeout : t -> float option -> unit
(** [set_timeout t (Some s)] bounds every later wait for a line: a read
    that sees no byte for [s] seconds returns [Error (Io _)] instead of
    blocking.  [None] (the default) waits without a deadline, as the CLI
    and a [wait_event] on a deep job need. *)

val close : t -> unit

val request :
  ?on_event:(Engine.Metrics.Json.v -> unit) ->
  t ->
  Protocol.envelope ->
  (Engine.Metrics.Json.v, Error.t) result
(** Sends one request and blocks for its response line; event lines
    arriving first (job progress on this connection) are handed to
    [on_event].  The response JSON is returned whole — [ok:false]
    responses are returned, not raised, so callers can inspect the
    error object. *)

val wait_event :
  t -> (Engine.Metrics.Json.v, Error.t) result
(** Blocks for the next event line (job progress/done streaming after a
    [job_start]/[job_resume] response). *)

(** {1 Raw access} — for protocol tests (malformed input, pipelining). *)

val send_raw : t -> string -> (unit, Error.t) result
(** Writes bytes verbatim (no framing, no validation). *)

val read_json : t -> (Engine.Metrics.Json.v, Error.t) result
(** Blocks for the next line, parsed as JSON (response or event). *)

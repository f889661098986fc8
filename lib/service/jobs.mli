(** Deep, resumable exploration jobs.

    A job is a {!Query.check} too big to answer inline: it runs on its
    own domain, checkpoints the exploration every [every] expanded states
    ({!Modelcheck.Explore.checkpoint}), and lands its result in the
    {!Store} under the {e same} key an ordinary check of that triple
    uses — the job id {e is} that key, so a finished job turns every
    later check of the triple into a warm hit, and the smoke gate can
    compare the two directly.

    Durability: a manifest (framed, checksummed, written atomically)
    records the job's request under [<store>/jobs/<id>.job] before the
    domain starts.  Kill the daemon mid-job and [job_resume <id>] in a
    fresh process reloads the manifest, picks up the latest checkpoint
    with {!Engine.Snapshot.load}, and continues the same deterministic
    BFS — the final result is bit-identical to an uninterrupted run. *)

type t

val create : store:Store.t -> (t, Error.t) result
(** Creates [<store>/jobs/] and sweeps stale temp files. *)

val job_id :
  Spp.Instance.t -> Engine.Model.t -> Protocol.query_config -> string
(** = {!Query.check_key}: the store key of the equivalent check. *)

val start :
  t ->
  instance:string ->
  model:Engine.Model.t ->
  config:Protocol.query_config ->
  every:int ->
  (string * Engine.Metrics.Json.v option, Error.t) result
(** Returns the job id, plus the result immediately when the store
    already holds it (no domain is spawned).  Starting an id that is
    already running is idempotent.  A leftover checkpoint for this id is
    picked up rather than discarded.  [Internal] when no domain can be
    spawned for the job (OCaml's domain cap); the manifest is kept, so
    {!resume} can retry. *)

val resume :
  t -> id:string -> (Engine.Metrics.Json.v option, Error.t) result
(** Re-launches a job from its manifest: instant result on a store hit,
    otherwise continues from the latest checkpoint (or from scratch when
    the job died before its first checkpoint).  [Unknown_job] if no
    manifest exists. *)

val status : t -> id:string -> (Engine.Metrics.Json.v, Error.t) result
(** One of [{"state":"running","states":n}], [{"state":"done"}] (the
    result is in the store), or [{"state":"suspended","checkpoint":b}]
    (manifest on disk, nothing running here).  [Unknown_job] when this
    daemon has never heard of the id. *)

type event =
  | Progress of { id : string; states : int }
  | Done of { id : string; result : Engine.Metrics.Json.v }
  | Failed of { id : string; message : string }

val poll : t -> event list
(** Drains what changed since the last poll: a [Progress] per running
    job whose state count moved, then [Done]/[Failed] for jobs that
    finished (their domains are joined here).  Driven by the server's
    select timeout. *)

val running : t -> int
(** Jobs currently on a domain (for stats and shutdown draining). *)

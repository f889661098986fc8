(** The daemon's compute layer: each request kind as a pure function of
    its inputs, memoized through {!Store}.

    Results are rendered as JSON once, at compute time, and cached in
    that form — a warm query is one framed-file read, no re-exploration.
    Cache keys are [(instance digest, model, config fingerprint)]; the
    config fingerprint covers the query kind, its result schema version
    and every knob that affects the answer, so two queries share an
    entry exactly when their answers must be bit-identical. *)

type t

val create :
  store:Store.t -> workers:int -> (t, Error.t) result
(** Derives the realization closure eagerly (a contradictory fact base
    is a typed error, not an exception). [workers] bounds the
    {!Engine.Pool} fan-out of batched sweeps. *)

val store : t -> Store.t

val check_schema : string
(** ["commrouting/serve_check/v1"] — the check/job result schema; part
    of the config fingerprint, so bumping it orphans old entries. *)

val check_fp : Protocol.query_config -> string
(** The config fingerprint of a check (or deep job) at this config. *)

val check_key :
  Spp.Instance.t -> Engine.Model.t -> Protocol.query_config ->
  instance:unit -> string
(** [check_key inst model config ~instance:()] is the store key a check
    of this triple uses — also the deep-job id for the same triple, so a
    finished job's result is exactly a warm check. *)

val compute_check :
  ?metrics:Engine.Metrics.t ->
  ?checkpoint:Modelcheck.Explore.checkpoint ->
  ?resume:Engine.Snapshot.t ->
  Spp.Instance.t ->
  Engine.Model.t ->
  Protocol.query_config ->
  Engine.Metrics.Json.v
(** One exploration + verdict, rendered as the canonical result JSON
    (verdict, witness shape and replay check, state/edge counts,
    pruned/truncated flags).  Deterministic: domain counts, resume and
    checkpoints do not change the result.  The uncached reference the
    bench and the smoke gate compare daemon responses against.  With
    [metrics], the phases "explore", "analyze" and "witness" (replay of an
    oscillation witness) are timed and the fair-cycle counters filled;
    the result does not depend on it. *)

val check :
  t ->
  instance:string ->
  model:Engine.Model.t ->
  config:Protocol.query_config ->
  fresh:bool ->
  (Engine.Metrics.Json.v * bool, Error.t) result
(** The memoized check; the bool is [true] on a cache hit.  [fresh]
    skips the cache read but still stores the recomputed result. *)

val sweep :
  t ->
  instance:string ->
  models:Engine.Model.t list ->
  config:Protocol.query_config ->
  fresh:bool ->
  (Engine.Metrics.Json.v, Error.t) result
(** Per-model checks batched onto the {!Engine.Pool} (an atomic work
    index over the model list); each model hits the same cache entries a
    single {!check} would.  Results are in request order regardless of
    worker interleaving. *)

val realize :
  t -> source:Engine.Model.t -> target:Engine.Model.t -> Engine.Metrics.Json.v
(** The Figures 3/4 cell for (source realized by target) — proven and
    disproven levels, achievability — plus the constructive transform
    chain when one exists.  Closure-backed, no cache needed. *)

val bgp :
  t ->
  nodes:int ->
  seed:int ->
  model:Engine.Model.t ->
  shards:int ->
  fresh:bool ->
  (Engine.Metrics.Json.v * bool, Error.t) result
(** A sharded simulation of a generated scaled topology (deterministic
    in [nodes] and [seed]); memoized under the topology digest. *)

val stats : t -> Engine.Metrics.Json.v
(** Store counters + entry count + pool reuse stats. *)

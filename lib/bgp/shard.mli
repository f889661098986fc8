(** Sharded internet-scale BGP simulation.

    The legacy pipeline ({!Simulate.run}) compiles the whole topology into
    an SPP instance — enumerating every valley-free path — which is
    exponential in the worst case and in practice caps topologies at a few
    hundred ASes.  This simulator runs Gao–Rexford route selection directly
    on the topology: each node keeps the last announcement per neighbor
    (its Adj-RIB-In, hash-consed in {!Spp.Arena}), selects the best simple
    extension, and announces on change under the export rules.  On
    wheel-free Gao–Rexford instances the stable solution is unique, so the
    final routes coincide with the legacy engine's assignment — the parity
    gates in the test-suite and bench check exactly that.

    Execution is bulk-synchronous over a {!Partition}: every epoch, each
    shard's worker drains its worklist of dirty nodes (intra-shard
    announcements are delivered immediately), while announcements that
    cross a shard boundary accumulate in per-shard outboxes.  At the epoch
    barrier the orchestrator drains the outboxes sequentially in shard
    order, so the computation is deterministic in the number of workers.
    The batching knob is the communication-model dial of the paper mapped
    onto a partitioned simulator: flushing only at the epoch barrier
    behaves like the synchronous ([*A]) models, flushing after every
    activation like the asynchronous ([*O]) ones; unreliable models drop a
    deterministic subset of non-final cross-partition messages. *)

type batching =
  | Per_epoch  (** flush cross-partition traffic only at the epoch barrier *)
  | Every of int  (** flush after every [n] activations per shard *)

type config = {
  model : Engine.Model.t;  (** recorded in results; see {!config_for} *)
  shards : int;
  batching : batching;
  workers : int;
      (** domains for the parallel phase, via {!Engine.Pool}.  Only
          {!Per_epoch} phases use them: an [Every k] phase holds at most
          [k] activations per shard and runs on the caller. *)
  max_epochs : int;
  lossy_every : int;
      (** 0: deliver everything.  [k > 0]: every [k]-th cross-partition
          message is dropped, except the newest message per (src, dst)
          channel in a flush, which always survives — so unreliable models
          lose traffic without losing convergence. *)
  seed : int;  (** partition seed *)
}

val default_config : config
(** RMS, 4 shards, per-epoch batching, 1 worker. *)

val batching_of_model : Engine.Model.t -> batching
(** [M_all]/[M_forced] (polling-flavored) map to {!Per_epoch}; [M_one] to
    [Every 1]; [M_some] to [Every 4]. *)

val lossy_of_model : Engine.Model.t -> int
(** 0 for reliable models, 3 for unreliable ones. *)

val config_for :
  ?shards:int -> ?workers:int -> ?batching:batching -> Engine.Model.t -> config
(** A config whose batching and lossiness are derived from the model's
    dimensions (overridable). *)

type result = {
  converged : bool;
  epochs : int;
  activations : int;  (** node activations across all shards *)
  messages : int;  (** announcements sent, intra- and cross-shard *)
  cross_messages : int;  (** announcements that crossed a shard boundary *)
  flushes : int;  (** non-empty outbox drains at barriers *)
  drops : int;  (** lossy cross-partition deliveries suppressed *)
  routes : Spp.Arena.id array;  (** final route per node *)
  partition : Partition.t;
  pool_engaged : bool;  (** whether a multi-domain parallel phase ran *)
}

val run :
  ?metrics:Engine.Metrics.t ->
  config ->
  Topology.t ->
  dest:Spp.Path.node ->
  result
(** With [metrics], activations are recorded as bulk steps, announcements
    as messages, and the wall time as a "shard" phase.

    The run reads the topology's own rows ({!Topology.rows}) and copies
    none of them.  It builds its partition with {!Partition.make} on every
    call, and the "shard" phase includes that cost. *)

val assignment : Spp.Instance.t -> result -> Spp.Assignment.t
(** The final routes as an SPP assignment of the compiled instance, for
    parity checks against the legacy engine (small topologies only — the
    instance must be compilable). *)

val route_digest : result -> string
(** Hex digest of the final route of every node; equal digests mean equal
    routing outcomes, usable at scales where compiling an instance is not
    feasible. *)

val pp_result : Format.formatter -> result -> unit

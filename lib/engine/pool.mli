(** A persistent pool of worker domains.

    [Domain.spawn] costs a runtime rendezvous with every live domain plus
    thread creation — milliseconds of wall time that PR 1's explorer and
    the conformance fuzzer paid on {e every} exploration.  A pool spawns
    each worker domain once per process, parks it on a condition variable
    between jobs, and reuses it for every subsequent parallel region, so
    repeated short explorations (the fuzzer runs thousands) pay the spawn
    cost zero or one times instead of per call.

    The pool is sized on demand: it holds [max (requested - 1)] workers
    ever seen, bounded by {!max_workers}.  The calling domain always
    participates as worker [0], so [run ~workers:k] uses [k - 1] pool
    domains.  Concurrent [run] calls are safe (a busy worker is skipped
    until it finishes its job; callers wait on the worker's own condition
    variable).  A job that itself calls [run] (re-entrancy) is detected
    and degrades to inline sequential execution of the instances — it
    never waits on pool mailboxes, so it cannot deadlock. *)

type t

val get : unit -> t
(** The process-global pool.  Workers are spawned lazily by {!run}. *)

val max_workers : int
(** Upper bound on pool domains (well below the OCaml runtime's domain
    limit); [run ~workers] beyond [max_workers + 1] is clamped. *)

val size : t -> int
(** Worker domains currently parked in (or running a job for) the pool. *)

val run : t -> workers:int -> (int -> unit) -> unit
(** [run t ~workers f] executes [f 0 .. f (workers - 1)] concurrently:
    [f 0] on the calling domain, the rest on pool workers (spawned on
    first use, reused afterwards), and returns when all have finished.
    [workers <= 1] degenerates to [f 0] with no synchronization.  If one
    or more instances of [f] raise, one of the exceptions is re-raised
    after all instances have finished. *)

val map : t -> workers:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map t ~workers f items] is [Array.map f items], computed by up to
    [workers] (clamped to the item count) {!run} instances that pull items
    off a shared atomic index.  With one worker it is [Array.map f items]
    on the calling domain, with no synchronization.  Each item is passed
    to [f] once; if [f] raises, the worker stops, the others finish the
    remaining items, and one of the exceptions is re-raised once every
    worker has finished. *)

type stats = {
  size : int;  (** worker domains alive now *)
  spawned_total : int;  (** domains ever spawned (growth events) *)
  runs : int;  (** parallel regions executed ([run] with [workers > 1]) *)
}

val stats : t -> stats
(** Reuse observability: a healthy workload shows [runs] growing while
    [spawned_total] stays put — see the pool block of
    [BENCH_explore.json] (schema v3). *)

(** Observability for the execution and model-checking hot paths.

    A [t] is a bag of domain-safe counters (atomics) plus named wall-clock
    phase timers.  One value is typically threaded through an entire
    analysis ({!Modelcheck.Explore} exploration, oscillation analysis, or an
    executor run) and then rendered as JSON for perf tracking
    ([BENCH_explore.json]) or pretty-printed for humans. *)

type t

val create : unit -> t

(** {2 Counters} — safe to call concurrently from several domains. *)

val add_edges : t -> int -> unit

val add_enumerations : t -> int -> unit
(** Entry lists computed by the successor enumerator's memo (misses); a
    hit costs nothing here.  Deterministic for a given exploration, so
    tests can pin it. *)

val incr_steps : t -> unit
(** One executor step (one activation applied). *)

val add_messages : t -> int -> unit
(** Messages pushed into channels by executor steps. *)

val add_interned : t -> int -> unit
val add_dedup : t -> int -> unit
val add_pruned : t -> int -> unit
val add_truncated : t -> int -> unit
val add_steps : t -> int -> unit
(** Bulk counterparts of the [incr_*] functions above: parallel-explorer
    workers (and the sharded BGP simulator's per-shard workers) accumulate
    in domain-local buffers and merge them here once at join, instead of
    hammering (and false-sharing) the shared atomics from the hot path. *)

val add_ample : t -> int -> unit
(** States expanded with a proper ample subset of their enabled
    activations (partial-order reduction engaged at that state). *)

val set_downgrade : t -> string -> unit
(** Record that the requested execution mode was downgraded (e.g. a
    [DOMAINS]-driven parallel default forced sequential by
    checkpoint/resume).  First write wins; later calls are ignored. *)

val downgrade : t -> string option

val observe_frontier : t -> int -> unit
(** Record the current frontier size; keeps the maximum seen. *)

val add_fair_splits : t -> int -> unit
(** Component splits (one Tarjan run each) made by a fair-cycle search. *)

val add_fair_edges_scanned : t -> int -> unit
(** Edges fed to those splits, summed over splits. *)

val set_domains : t -> int -> unit

(** {2 Readers} *)

val states_interned : t -> int
val dedup_hits : t -> int
val edges : t -> int
val enumerations : t -> int
val pruned_writes : t -> int
val truncated_interns : t -> int
val ample_states : t -> int
val steps : t -> int
val messages : t -> int
val peak_frontier : t -> int
val fair_splits : t -> int
val fair_edges_scanned : t -> int
val domains : t -> int

val dedup_rate : t -> float
(** hits / (hits + fresh); 0 when nothing was interned. *)

val states_per_sec : t -> float
(** Fresh states per second of recorded "explore" phase time. *)

(** {2 Phases} *)

val add_phase : t -> string -> float -> unit
val phases : t -> (string * float) list
(** In order of completion; a phase name can repeat. *)

val phase_time : t -> string -> float
(** Total seconds recorded under that name. *)

val timed : ?m:t -> string -> (unit -> 'a) -> 'a
(** Run the thunk, recording its wall time as a phase when [m] is given. *)

(** {2 JSON} *)

module Json : sig
  type v =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of v list
    | Obj of (string * v) list

  val to_string : v -> string
  val parse : string -> (v, string) result
  (** Minimal strict parser (ASCII escapes only), enough to validate the
      bench artifacts without an external dependency. *)

  val member : string -> v -> v option
end

val to_json : t -> Json.v
val pp : Format.formatter -> t -> unit

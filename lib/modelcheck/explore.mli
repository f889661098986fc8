(** Explicit-state exploration of an instance under a communication model.

    Channels are bounded: any write that would push a channel beyond
    [channel_bound] messages prunes that edge (and the result is flagged),
    so "no oscillation found" verdicts are exhaustive only over the bounded
    space — see DESIGN.md.  Oscillation witnesses are sound regardless.

    The search itself is {!Driver}, shared by every protocol: SPP (this
    module's {!explore}) and [Gexplore.Make (P)] are its two instances.
    Exploration can run on several OCaml domains ([?domains], or the
    [DOMAINS] environment variable).  {!Driver} runs one sequential loop
    on the calling domain and only hands the frontier to the persistent
    {!Engine.Pool} — per-worker work-stealing deques, an atomic in-flight
    counter for termination, counter buffers merged at join — once the
    frontier outgrows a spill threshold, so small state spaces never pay
    any parallel overhead.  By default the threshold is infinite on
    hardware without parallelism ([Domain.recommended_domain_count () <=
    1], where extra domains only add GC barriers); pass [?spill] to
    override (0 engages the pool immediately).

    What is identical across domain counts: when the state bound is not
    reached, the reachable state set, the edge multiset (up to state
    numbering), the [pruned] flag and every verdict derived from the
    graph; only the state numbering beyond the sequential prefix may
    differ.  When the bound is reached, every run reports [truncated],
    holds at most [max_states] states and has no dangling edge, but the
    work-stealing phase keeps a subset that depends on the schedule, and
    so may [pruned] and the verdict.  A sequential run is deterministic.

    The driver writes the graph it explores in compressed sparse rows
    ({!Fair.csr}: two words per edge, labels shared), which is what the
    fair-cycle kernel consumes; {!graph}, with an edge list per state, is
    a view built from it. *)

type config = { channel_bound : int; max_states : int }

val default_config : config
(** channel bound 4, at most 200_000 states. *)

val default_domains : unit -> int
(** The [DOMAINS] environment variable when it parses as a positive
    integer, or {!auto_domains} when set to [auto] (case-insensitive);
    1 (sequential) otherwise. *)

val auto_domains : unit -> int
(** [Domain.recommended_domain_count () - 1] (one core left for the rest
    of the process), clamped to at least 1. *)

val default_spill : unit -> int option
(** The adaptive spill threshold used when [?spill] is not given: [None]
    (never spill — explore sequentially regardless of [domains]) without
    hardware parallelism, a small frontier bound otherwise. *)

type edge = { dst : int; label : Enumerate.labeled }

(** {1 The driver} *)

module type STATE = sig
  type t

  val equal : t -> t -> bool

  val digest : t -> int
  (** Must agree with [equal]. *)

  val max_occupancy : t -> int
  (** The longest channel queue. *)

  type draft
  (** A successor before it is sealed into a [t], as [space.next] hands
      it over (for SPP, the step kernel's scratch {!Engine.State.Edit}).
      The driver looks it up, and seals it only when it is new. *)

  val draft_digest : draft -> int
  (** [digest (seal d ~digest:_)]. *)

  val draft_occupancy : draft -> int
  (** [max_occupancy (seal d ~digest:_)]. *)

  val draft_equal : draft -> t -> bool
  (** [equal (seal d ~digest:_) s]. *)

  val seal : draft -> digest:int -> t
  (** [digest] is [draft_digest d], already computed. *)
end

module Sealed (S : sig
  type t

  val equal : t -> t -> bool
  val digest : t -> int
  val max_occupancy : t -> int
end) : STATE with type t = S.t and type draft = S.t
(** A state whose successors come sealed: a draft is the state itself. *)

module Driver (S : STATE) : sig
  type compact = {
    states : S.t array;  (** index 0 is the initial state *)
    csr : Fair.csr;  (** the edges, in the rows' expansion order *)
    pruned : bool;  (** some write hit the channel bound *)
    truncated : bool;
        (** the [max_states] bound discarded at least one fresh successor;
            the graph itself never exceeds the bound and has no dangling
            edges *)
  }
  (** What an exploration produces. *)

  type graph = {
    states : S.t array;
    adjacency : edge list array;  (** [csr]'s rows as lists *)
    pruned : bool;
    truncated : bool;
  }
  (** The same graph with an edge list per state. *)

  val view : compact -> graph
  val of_view : graph -> compact

  type space = {
    initial : S.t;
    normalize : S.t -> S.t;
        (** the whole-state normal form, applied only to [initial] and to
            resumed states; every [next] successor must already be in it *)
    successors : S.t -> Enumerate.labeled list;
        (** the entries to expand; must be pure, since the work-stealing
            phase calls it from several domains *)
    next : 'r. S.t -> Engine.Activation.t -> (S.draft Engine.Step.successor -> 'r) -> 'r;
        (** the step, handing its successor to the continuation; a draft
            need not outlive it *)
    ample :
      (S.t ->
      (Enumerate.labeled * S.t Engine.Step.successor) list ->
      (Enumerate.labeled * S.t Engine.Step.successor) list * bool)
      option;
        (** partial-order reduction: the pairs to expand, and whether they
            are a proper subset (counted as [ample_states]) *)
    canon : (S.t -> S.t) option;
        (** a symmetry quotient's orbit representative, applied before
            interning (counted as [canonicalized] when it rewrites) *)
  }
  (** One exploration's state space: everything protocol-specific. *)

  type progress = {
    interned : S.t array;  (** every interned state, index = state id *)
    rows : Fair.Rows.t;
        (** the expanded rows' log: the run's own, which it goes on
            appending to after [save] returns; a resumed run continues
            the given one *)
    frontier : int list;  (** queued ids, front of the queue first *)
    any_pruned : bool;
    any_truncated : bool;
    counters : Engine.Snapshot.counters;
  }
  (** A sequential exploration's resumable progress. *)

  val run :
    ?metrics:Engine.Metrics.t ->
    ?checkpoint:int * (progress -> unit) ->
    ?resume:progress ->
    ?pool:int * int ->
    config ->
    space ->
    compact
  (** Breadth-first exploration from [space.initial] (or from [resume]).
      The sequential loop expands states in id order and appends each
      row to one {!Fair.Rows} log; the work-stealing phase gives every
      worker its own log, and {!Fair.Rows.csr} groups the logs by state
      at the end.
      [checkpoint = (every, save)] hands [save] the progress after every
      [every] expanded states while the frontier is not empty.
      [pool = (domains, spill)] hands the frontier to [domains] pool
      workers once it outgrows [spill] states; checkpoints are only
      written before that.  With [metrics], interning, dedup, pruning,
      frontier and reduction counters are recorded once, at the end.
      Which states and flags agree with a sequential run is set out in
      this module's header: all of them without truncation, the bound
      and the absence of dangling edges with it. *)
end

(** {1 SPP} *)

module Spp_state :
  STATE with type t = Engine.State.t and type draft = Engine.State.Edit.t
(** SPP states for the driver: a successor is looked up as the step
    kernel's edit ({!Engine.Step.with_next}) and sealed only when new. *)

type compact = Driver(Spp_state).compact = {
  states : Engine.State.t array;
  csr : Fair.csr;
  pruned : bool;
  truncated : bool;
}

type graph = Driver(Spp_state).graph = {
  states : Engine.State.t array;
  adjacency : edge list array;
  pruned : bool;
  truncated : bool;
}

val view : compact -> graph
(** The edge-list view of an explored graph (same numbering, same row
    order). *)

val of_view : graph -> compact

val collapses : Engine.Model.t -> bool
(** The model is reliable with [M_all] reads, where only a channel's
    newest message can ever become a known route: keeping just the last
    message of every queue is exact. *)

val collapse_state : Engine.Model.t -> Engine.State.t -> Engine.State.t
(** The last-message-only channel reduction of a whole state under a
    model that {!collapses} (identity otherwise). *)

val project_state : Spp.Instance.t -> Engine.State.t -> Engine.State.t
(** The receiver-relevance projection of a whole state: every route in a
    channel into [v], or known as [v]'s ρ, that is not
    {!Engine.Step.relevant} at [v] becomes epsilon (queue lengths are
    kept).  Every state of an explored graph is a fixpoint of it and of
    {!collapse_state}: the explorers apply both to the initial state and
    to resumed snapshot states, and the step kernel ({!Engine.Step.next})
    keeps every successor so. *)

type checkpoint = { path : string; every : int }
(** Write an {!Engine.Snapshot} of the exploration's progress to [path]
    (atomically, via temp file + rename) after every [every] expanded
    states.  No checkpoint is written once the frontier drains — a file
    left behind always resumes to the same final graph. *)

val explore_compact :
  ?config:config ->
  ?reduction:Reduce.t ->
  ?domains:int ->
  ?spill:int ->
  ?metrics:Engine.Metrics.t ->
  ?checkpoint:checkpoint ->
  ?resume:Engine.Snapshot.t ->
  Spp.Instance.t ->
  Engine.Model.t ->
  compact
(** The explored graph of an instance under a model, as the explorer
    writes it ({!explore_with} for the options). *)

val explore :
  ?config:config ->
  ?reduction:Reduce.t ->
  ?domains:int ->
  ?spill:int ->
  ?metrics:Engine.Metrics.t ->
  ?checkpoint:checkpoint ->
  ?resume:Engine.Snapshot.t ->
  Spp.Instance.t ->
  Engine.Model.t ->
  graph
(** [view (explore_compact ...)], for callers that walk edge lists.  Its
    one caller outside the tests is perfbench's traced check. *)

val explore_with :
  ?config:config ->
  ?reduction:Reduce.t ->
  ?domains:int ->
  ?spill:int ->
  ?metrics:Engine.Metrics.t ->
  ?checkpoint:checkpoint ->
  ?resume:Engine.Snapshot.t ->
  Spp.Instance.t ->
  successors:(Engine.State.t -> Enumerate.labeled list) ->
  collapse:bool ->
  compact
(** Generalized entry point (heterogeneous models).  [collapse] keeps only
    the last message of every channel; it is exact only when every entry
    [successors] yields is reliable with [M_all] reads (every model
    {!collapses}).  [successors] must be pure: once the pool engages it
    is called concurrently from several domains.  With [metrics],
    interning, dedup, pruning and frontier counters are recorded (merged
    once at join on the parallel path), plus an "explore" wall-time
    phase.

    [?reduction] (default {!Reduce.No_reduction}, which leaves the legacy
    exploration bit-identical) applies {!Reduce.Por} ample-set pruning or
    the {!Reduce.Sym} symmetry quotient; both preserve the verdict and
    the reachable assignment set (DESIGN.md).  Under [Por] the
    [ample_states] metric counts states expanded through a proper ample
    subset; under [Sym] the [canonicalized] metric counts successors
    rewritten to another orbit representative.

    [?checkpoint] and [?resume] (a snapshot loaded by the caller with
    {!Engine.Snapshot.load}) are defined only for the deterministic
    sequential order.  Resuming continues the saved BFS — same intern
    table, same queue order — so the final verdict, state count and edge
    multiset are bit-identical to an uninterrupted run.

    Raises [Invalid_argument] if: the snapshot's recorded
    [channel_bound]/[max_states]/[reduction] disagree with this run's;
    [checkpoint.every < 1]; [Sym] is combined with checkpoint/resume
    (orbit representatives are process-local, see {!Reduce.canonicalizer});
    or an explicit [?domains] above 1 is combined with checkpoint or
    resume.  When those options merely meet an environment-derived
    ([DOMAINS]) parallelism default, the run is downgraded to one domain
    and the downgrade is recorded in the metrics
    ([Engine.Metrics.downgrade]) rather than silently applied. *)

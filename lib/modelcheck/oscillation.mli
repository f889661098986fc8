(** Fair-oscillation detection (the semantic core of Def. 2.4/2.5 claims).

    An instance can oscillate under a model iff its (bounded) state graph
    contains a strongly connected edge set that (a) tries to read every
    tracked channel, (b) only drops messages on channels it also reads
    cleanly, and (c) visits at least two distinct path assignments.  Looping
    over such an edge set forever is a fair nonconvergent execution; the
    returned witness makes this concrete as a schedule the {!Engine.Executor}
    can replay.

    This module supplies only what is SPP's: the goal (two states whose
    path assignments differ; the tracked channels are
    {!Engine.View.tracked} of the SPP view) and the step semantics a replay runs
    ({!Engine.Step}, {!Engine.Executor}).  The search, the verdict rule
    and its reason strings ({!Fair.decide}) and the witness check
    ({!Fair.replays}) are shared with {!Gexplore}. *)

type witness = Fair.witness = {
  prefix : Engine.Activation.t list;  (** from the initial state to the cycle *)
  cycle : Engine.Activation.t list;  (** a fair, π-changing closed walk *)
}

type verdict = Fair.verdict =
  | Oscillates of witness
  | Converges  (** exhaustive over the bounded space: no fair oscillation *)
  | Unknown of string  (** bounded exploration was pruned or truncated *)

val pp_verdict : Format.formatter -> verdict -> unit
val verdict_name : verdict -> string

val analyze_compact : ?metrics:Engine.Metrics.t -> Spp.Instance.t -> Explore.compact -> verdict
(** The verdict of an already-explored bounded state graph; lets callers
    reuse one exploration for several analyses (and benchmark the phases
    separately).  The verdict is {!Fair.decide} over the explorer's CSR
    graph itself; with [metrics] its split and edge counters are
    recorded. *)

val analyze_graph : ?metrics:Engine.Metrics.t -> Spp.Instance.t -> Explore.graph -> verdict
(** {!analyze_compact} of an edge-list graph, converted back to CSR
    ({!Explore.of_view}). *)

val analyze :
  ?config:Explore.config ->
  ?reduction:Reduce.t ->
  ?domains:int ->
  ?metrics:Engine.Metrics.t ->
  Spp.Instance.t ->
  Engine.Model.t ->
  verdict
(** [reduction]/[domains]/[metrics] are forwarded to {!Explore.explore_compact};
    with [metrics] the graph analysis is additionally timed as an
    "analyze" phase and counted ({!Engine.Metrics.fair_splits}).  POR
    preserves the verdict of a clean (unpruned, untruncated) exploration;
    when the exact run prunes at the channel bound, a reduced run may
    additionally reach a definitive verdict, because POR's representative
    executions drain messages eagerly and can stay inside a bound the
    original schedule exceeded (DESIGN.md). *)

val analyze_hetero :
  ?config:Explore.config ->
  ?reduction:Reduce.t ->
  ?domains:int ->
  ?metrics:Engine.Metrics.t ->
  Spp.Instance.t ->
  Engine.Hetero.t ->
  verdict
(** Exhaustive verdict when each node runs its own model (Sec. 5's open
    mixed-model question).  [Reduce.Por] is sound here: the drain
    conditions are per-node and model-independent. *)

val verify_witness :
  ?max_steps:int -> Spp.Instance.t -> Engine.Model.t -> witness -> bool
(** {!Fair.replays} under SPP's step and executor: every entry is valid in
    the model, the replayed cycle is fair, and the executor reaches a
    state cycle. *)

val verify_witness_hetero :
  ?max_steps:int -> Spp.Instance.t -> Engine.Hetero.t -> witness -> bool

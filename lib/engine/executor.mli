(** Running activation sequences against an instance. *)

type stop =
  | Converged
      (** SPP: all channels empty and every node's choice equals its
          announced route (Def. 2.5, printed "quiescent"); a
          {!Generic.Make} protocol: its convergence predicate *)
  | Cycle of { first : int; period : int }
      (** the full network state repeated at the same schedule phase: under
          a cyclic schedule the execution provably oscillates forever *)
  | Exhausted  (** ran out of entries or reached [max_steps] *)
(** How a run ended, for this executor and [Generic.Make (P).Executor]. *)

val pp_stop_as : string -> Format.formatter -> stop -> unit
(** [pp_stop_as word] prints {!Converged} as [word]. *)

val pp_stop : Format.formatter -> stop -> unit
(** [pp_stop_as "quiescent"]. *)

type 'state ended = { final : 'state; stop : stop; steps : int }
(** [steps] is the number of activation entries applied. *)

(** The executor loop of both stacks: [run ~max_steps ~apply ~converged
    init sched] applies entries ([apply index state entry], from index 1)
    until a [converged] state, a state/phase cycle (only detected when the
    scheduler declares a period; the table is keyed on the digest), the
    end of the sequence, or [max_steps].  The start state is not tested. *)
module Loop (S : sig
  type t

  val equal : t -> t -> bool
  val digest : t -> int
end) : sig
  val run :
    max_steps:int ->
    apply:(int -> S.t -> Activation.t -> S.t) ->
    converged:(S.t -> bool) ->
    S.t ->
    Scheduler.t ->
    S.t ended
end

type run = { trace : Trace.t; stop : stop }

val run :
  ?export:Step.export ->
  ?validate:Model.t ->
  ?metrics:Metrics.t ->
  ?max_steps:int ->
  Spp.Instance.t ->
  Scheduler.t ->
  run
(** Applies the scheduler's entries until quiescence, a state/phase cycle
    (only detected when the scheduler declares a period), exhaustion of the
    sequence, or [max_steps] (default 10_000).  With [validate], every entry
    is checked against the model first and [Invalid_argument] is raised on a
    violation.  With [metrics], steps and pushed messages are counted and
    the wall time is recorded as an "executor" phase. *)

val run_from :
  ?export:Step.export ->
  ?validate:Model.t ->
  ?metrics:Metrics.t ->
  ?max_steps:int ->
  state:State.t ->
  Spp.Instance.t ->
  Scheduler.t ->
  run
(** Like {!run} but starting from an arbitrary state (e.g. a converged
    network after a topology or policy event). *)

val run_streaming :
  ?export:Step.export ->
  ?validate:Model.t ->
  ?metrics:Metrics.t ->
  ?max_steps:int ->
  ?state:State.t ->
  ?on_step:(Trace.step -> unit) ->
  Spp.Instance.t ->
  Scheduler.t ->
  State.t ended
(** The loop of {!run} without trace retention: each applied step is handed
    to [on_step] (if given) and then forgotten, so a run over millions of
    steps uses memory proportional to one state rather than to the whole
    execution.  [state] defaults to {!State.initial}.  Stop conditions,
    model validation and metrics recording are identical to {!run} —
    {!run_from} is implemented on this loop with an accumulating
    [on_step].  (For periodic schedules the cycle-detection table still
    retains one state per step, the price of sound divergence detection;
    schedules with [period = None] detect no cycles and retain nothing.) *)

val run_entries :
  ?export:Step.export ->
  ?validate:Model.t ->
  ?metrics:Metrics.t ->
  Spp.Instance.t ->
  Activation.t list ->
  Trace.t
(** Runs a finite scripted sequence to its end (no early stop). *)

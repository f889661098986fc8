(** Fair activation-sequence generators for each communication model
    (Def. 2.4: every node tries to read every channel infinitely often, and
    every dropped message is eventually followed by a non-dropped one). *)

type t = {
  entries : Activation.t Seq.t;  (** possibly infinite *)
  period : int option;
      (** for cyclic schedules, the cycle length, enabling sound divergence
          detection in {!Executor} *)
  description : string;
}

val round_robin_cycle :
  ?model_of:(Spp.Path.node -> Model.t) -> View.t -> Model.t -> Activation.t list
(** One cycle of the canonical deterministic fair schedule: nodes in
    order; under E/M models one entry per node reading its required
    channels, under 1 models one entry per (node, readable channel) pair,
    or one entry without reads for a node with no readable channel.
    Message counts are maximal for the node's model; no messages are
    dropped (legal in both R and U models).  [model_of] gives each node
    its own model (heterogeneous mixtures); it defaults to the given
    model everywhere. *)

val round_robin_of :
  ?model_of:(Spp.Path.node -> Model.t) -> View.t -> Model.t -> t
(** {!round_robin_cycle} repeated forever. *)

val round_robin : Spp.Instance.t -> Model.t -> t
(** {!round_robin_of} on the SPP view. *)

val synchronous : View.t -> Model.t -> t
(** Every node activates each step, reading all its required channels
    with the model's maximal message count (multi-node entries, for
    {!Model.validates_multi}). *)

val random : Spp.Instance.t -> Model.t -> seed:int -> t
(** A randomized schedule, fair by construction: any channel left unread
    for too long forces an activation that reads it, and under unreliable
    models a channel whose last processed message was dropped is eventually
    read without drops.  Deterministic in [seed]. *)

val of_entries : ?period:int -> Activation.t list -> t
(** A finite scripted schedule (or, with [period] equal to the list length,
    one whose executor may treat as repeating). *)

val cycle : Activation.t list -> t
(** Repeats the given entries forever; [period] is the list length.
    Raises [Invalid_argument] on an empty list. *)

val prefixed : Activation.t list -> Activation.t list -> t
(** [prefixed prefix cycle] plays [prefix] once and then repeats [cycle]
    forever.  Raises [Invalid_argument] when [cycle] is empty.  The declared period is the cycle length, which is sound for
    divergence detection as long as states repeating one cycle apart are
    compared at equal phases (they are: phase is the step index modulo the
    period). *)

val prefix : int -> t -> Activation.t list
(** The first [n] entries, for inspection and fairness checks. *)

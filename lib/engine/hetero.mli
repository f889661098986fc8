(** Heterogeneous communication models: a different model per node.

    Sec. 5 of the paper leaves open what happens when, e.g., "some nodes
    poll and others act on messages".  This module makes such mixtures
    first-class: an assignment of one taxonomy model to every node.  Its
    [model_of] is the [?model_of] argument of the shared validators
    ({!Model.validates}) and fair schedule ({!Scheduler.round_robin_cycle}),
    which serve the SPP stack and every generic protocol alike;
    {!Modelcheck.Oscillation}'s heterogeneous entry points give exhaustive
    verdicts. *)

type t
(** A total assignment of models to nodes. *)

val uniform : Model.t -> t
val of_list : default:Model.t -> (Spp.Path.node * Model.t) list -> t
val model_of : t -> Spp.Path.node -> Model.t
val describe : Spp.Instance.t -> t -> string

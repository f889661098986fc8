(** Heterogeneous communication models: a different model per node.

    Sec. 5 of the paper leaves open what happens when, e.g., "some nodes
    poll and others act on messages".  This module makes such mixtures
    first-class: an assignment of one taxonomy model to every node, with
    validation, fair schedulers, and (via {!Modelcheck.Oscillation}'s
    heterogeneous entry points) exhaustive verdicts.

    This module is typed against {!Spp.Instance.t}: applying it to a
    non-path-vector protocol is rejected at compile time, never answered
    wrongly.  For the generic engine, the same per-node mixtures are the
    [?model_of] parameter of {!Generic.Make}'s [validates], [round_robin]
    and [round_robin_lossy]. *)

type t
(** A total assignment of models to nodes. *)

val uniform : Model.t -> t
val of_list : default:Model.t -> (Spp.Path.node * Model.t) list -> t
val model_of : t -> Spp.Path.node -> Model.t

val validates : Spp.Instance.t -> t -> Activation.t -> bool
(** Exactly one node updates, and its reads satisfy its own model. *)

val round_robin : Spp.Instance.t -> t -> Scheduler.t
(** The canonical fair schedule: like {!Scheduler.round_robin} but with
    each node activated according to its own model. *)

val describe : Spp.Instance.t -> t -> string

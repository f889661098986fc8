(** Enumeration of the activation entries a model allows at a given network
    state, up to observational equivalence.

    Two entries are observationally equivalent when they consume the same
    messages, leave the same known route, and differ only in drop patterns
    with identical effect; one canonical representative per class keeps the
    state space small without losing behaviors (DESIGN.md). *)

type labeled = {
  entry : Engine.Activation.t;
  reads : Engine.Channel.id list;  (** channels tried (fairness bookkeeping) *)
  drops : Engine.Channel.id list;  (** channels with >= 1 dropped message *)
  cleans : Engine.Channel.id list;
      (** channels with >= 1 processed, non-dropped message *)
}

val successors :
  ?metrics:Engine.Metrics.t ->
  Spp.Instance.t ->
  Engine.Model.t ->
  Engine.State.t ->
  labeled list
(** All canonical entries of the model at this state (for every choice of
    active node).  Partial application to the instance and model builds
    one memo ({!memo}) that every later state shares: apply it once per
    exploration, not once per state.  With [metrics], memo misses are
    counted as [enumerations]. *)

val successors_with :
  ?metrics:Engine.Metrics.t ->
  Spp.Instance.t ->
  (Spp.Path.node -> Engine.Model.t) ->
  Engine.State.t ->
  labeled list
(** Heterogeneous variant: each node activates under its own model.  The
    same partial-application rule applies; [model_of] is read once per
    node when the memo is built. *)

val successors_core :
  nodes:int list ->
  required:(int -> Engine.Channel.id list) ->
  length:(Engine.Channel.id -> int) ->
  model_of:(int -> Engine.Model.t) ->
  labeled list
(** The enumeration itself, unmemoised, parametric in where the node list,
    per-node required channel sets and queue lengths come from.  Entry
    order is exactly that of {!successors_with} for the corresponding
    inputs. *)

val memo :
  ?metrics:Engine.Metrics.t ->
  nodes:int list ->
  required:(int -> Engine.Channel.id list) ->
  model_of:(int -> Engine.Model.t) ->
  unit ->
  (Engine.Channel.id -> int) ->
  labeled list
(** [memo ~nodes ~required ~model_of ()] is {!successors_core} with its
    per-node entry lists memoised by the exact lengths of that node's
    required channels: [memo ... () length] returns the same lists, in the
    same order, as [successors_core ~nodes ~required ~length ~model_of],
    and equal keys share one list.  The memo is safe to call from several
    domains at once.  [required] and [model_of] are read once per node,
    when the memo is built.  With [metrics], each memo miss (one
    enumeration of one node's entries) adds 1 to [enumerations]. *)

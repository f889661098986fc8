(** Enumeration of the activation entries a model allows at a given network
    state, up to observational equivalence.

    Two entries are observationally equivalent when they consume the same
    messages, leave the same known route, and differ only in drop patterns
    with identical effect; one canonical representative per class keeps the
    state space small without losing behaviors (DESIGN.md).

    Entries that differ only in reads processing no message (an empty
    channel, or a [Finite 0] read) are all kept: fairness (Def. 2.4)
    counts such a read, so each is its own edge label.  The step does
    nothing for such a read, though, so they step to one successor.  The
    memo groups each node's entries with the index of the first entry of
    equal effect ({!group}), computed once per key, and the explorer steps
    one entry per effect (DESIGN.md §3g). *)

type labeled = {
  entry : Engine.Activation.t;
  reads : Engine.Channel.id list;  (** channels tried (fairness bookkeeping) *)
  drops : Engine.Channel.id list;  (** channels with >= 1 dropped message *)
  cleans : Engine.Channel.id list;
      (** channels with >= 1 processed, non-dropped message *)
}

type group = {
  labels : labeled list;  (** one node's entries, in enumeration order *)
  rep : int array;
      (** [rep.(k)] is the index of the first label whose effect equals
          label [k]'s at these channel lengths, so [rep.(k) <= k]; the
          effect of an entry is the list of its reads that process at
          least one message, each with its processed count and the
          processed messages it drops *)
}
(** One node's entries at one state. *)

val groups :
  ?metrics:Engine.Metrics.t ->
  Spp.Instance.t ->
  Engine.Model.t ->
  Engine.State.t ->
  group list
(** All canonical entries of the model at this state, one group per node
    in {!Spp.Instance.nodes} order.  Partial application to the instance
    and model builds one memo ({!memo}) that every later state shares:
    apply it once per exploration, not once per state.  With [metrics],
    memo misses are counted as [enumerations]. *)

val groups_with :
  ?metrics:Engine.Metrics.t ->
  Spp.Instance.t ->
  (Spp.Path.node -> Engine.Model.t) ->
  Engine.State.t ->
  group list
(** Heterogeneous variant: each node activates under its own model.  The
    same partial-application rule applies; [model_of] is read once per
    node when the memo is built. *)

val labels : group list -> labeled list
(** The groups' entries, concatenated. *)

val successors :
  ?metrics:Engine.Metrics.t ->
  Spp.Instance.t ->
  Engine.Model.t ->
  Engine.State.t ->
  labeled list
(** [labels (groups inst model st)], with the same partial-application
    rule. *)

val successors_core :
  nodes:int list ->
  required:(int -> Engine.Channel.id list) ->
  length:(Engine.Channel.id -> int) ->
  model_of:(int -> Engine.Model.t) ->
  labeled list
(** The enumeration itself, unmemoised, parametric in where the node list,
    per-node required channel sets and queue lengths come from.  Entry
    order is exactly that of {!groups_with}'s labels for the corresponding
    inputs. *)

val memo :
  ?metrics:Engine.Metrics.t ->
  nodes:int list ->
  required:(int -> Engine.Channel.id list) ->
  model_of:(int -> Engine.Model.t) ->
  unit ->
  (Engine.Channel.id -> int) ->
  group list
(** [memo ~nodes ~required ~model_of ()] is {!successors_core} with its
    per-node entry lists memoised by the exact lengths of that node's
    required channels: the labels of [memo ... () length] are the same,
    in the same order, as [successors_core ~nodes ~required ~length
    ~model_of], and equal keys share one group.  The memo is safe to call
    from several domains at once.  [required] and [model_of] are read once
    per node, when the memo is built.  With [metrics], each memo miss (one
    enumeration of one node's entries) adds 1 to [enumerations]. *)

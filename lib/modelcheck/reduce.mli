(** State-space reduction for {!Explore}: commutativity-based partial-order
    reduction.

    It is opt-in; the default {!No_reduction} leaves the explorer's legacy
    behavior bit-identical.  The soundness argument, the per-model
    independence relation and the limits of the reduction are laid out in
    DESIGN.md ("State-space reduction"), with why there is no symmetry
    quotient. *)

type t =
  | No_reduction  (** explore the full graph (legacy behavior) *)
  | Por
      (** invisible-drain ample sets: when some node's activations at a
          state all consume messages without changing that node's choice,
          announcement or out-channels, expanding only that node's
          activations preserves every reachable assignment, the verdict
          and all fairness-relevant cycles *)

val to_string : t -> string
(** ["none"], ["por"] — the [--reduction] spellings used by the bench and
    conformance CLIs and stored in snapshots/artifacts. *)

val of_string : string -> t option

val pp : Format.formatter -> t -> unit

(** {1 Partial-order reduction} *)

val ample :
  Engine.State.t ->
  (Enumerate.labeled * Engine.Step.next) list list ->
  (Enumerate.labeled * Engine.Step.next) list * bool
(** [ample st groups] selects an ample subset of the labeled activations
    (paired with their already-computed {!Engine.Step.next} results) to
    expand at [st].  [groups] holds one list per node, in
    {!Spp.Instance.nodes} order as {!Enumerate.groups} gives them.  The
    first node that is an {e invisible drain} wins: all of its activations
    at [st] push no messages and leave its own choice and last
    announcement unchanged, with at least one activation consuming a
    message.  Returns that node's pairs and [true], or all pairs and
    [false] when no node qualifies.  Steps are never recomputed. *)

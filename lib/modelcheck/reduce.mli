(** State-space reductions for {!Explore}: commutativity-based partial-order
    reduction and node-relabeling symmetry quotient.

    Both are opt-in; the default {!No_reduction} leaves the explorer's
    legacy behavior bit-identical.  Soundness arguments, the per-model
    independence relation and the limits of each reduction are laid out in
    DESIGN.md ("State-space reduction"). *)

type t =
  | No_reduction  (** explore the full graph (legacy behavior) *)
  | Por
      (** invisible-drain ample sets: when some node's activations at a
          state all consume messages without changing that node's choice,
          announcement or out-channels, expanding only that node's
          activations preserves every reachable assignment, the verdict
          and all fairness-relevant cycles *)
  | Sym
      (** quotient states by the instance's {!Spp.Instance.automorphisms},
          interning only the orbit representative; requires a symmetric
          instance to have any effect, and is incompatible with
          checkpoint/resume (representatives are chosen by process-local
          arena order) *)

val to_string : t -> string
(** ["none"], ["por"], ["sym"] — the [--reduction] spellings used by the
    bench and conformance CLIs and stored in snapshots/artifacts. *)

val of_string : string -> t option

val pp : Format.formatter -> t -> unit

(** {1 Partial-order reduction} *)

val ample :
  Spp.Instance.t ->
  Engine.State.t ->
  (Enumerate.labeled * Engine.Step.next) list ->
  (Enumerate.labeled * Engine.Step.next) list * bool
(** [ample inst st steps] selects an ample subset of the labeled
    activations (paired with their already-computed {!Engine.Step.next}
    results) to expand at [st].  Scans the label groups node by node (in
    {!Spp.Instance.nodes} order, matching {!Enumerate.successors}'
    grouping) for an {e invisible drain}: a node all of whose activations
    at [st] push no messages and leave its own choice and last
    announcement unchanged, with at least one activation consuming a
    message.  Returns that node's pairs and [true], or all pairs and
    [false] when no node qualifies.  Steps are never recomputed. *)

(** {1 Symmetry quotient} *)

type canonicalizer = Engine.State.t -> Engine.State.t

val canonicalizer : Spp.Instance.t -> canonicalizer
(** [canonicalizer inst] maps a state to its orbit representative — the
    {!Engine.State.compare}-minimum of its images under the instance's
    automorphism group.  The identity function when the instance has no
    automorphisms.  Representatives are consistent within a process (the
    hash-consed arena gives every domain the same path ids), but {e not}
    across processes, which is why [Sym] cannot be checkpointed. *)

val relabel : Spp.Instance.t -> Spp.Path.node array -> Engine.State.t -> Engine.State.t
(** [relabel inst sigma st] is [st] with every node [v] renamed to
    [sigma.(v)] in π, ρ, announcements and channel contents (exposed for
    tests; {!canonicalizer} folds it over the automorphism group). *)

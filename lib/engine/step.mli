(** One step of the iterative routing algorithm (Def. 2.3).

    Given the entry (U, X, f, g) for the current step, a step (1) processes
    messages from the channels in X, updating known routes ρ and deleting
    processed messages, (2) lets every active node choose its most preferred
    feasible route, and (3) writes announcements for changed choices into
    the out-channels prescribed by the export policy.

    Deviations from the paper's literal text, both documented in DESIGN.md:
    the number of messages processed is [min f(c) m_c] (the text's [max] is
    a typo), and announcement is triggered by comparison with the node's
    last-announced route rather than π_v(t−1). *)

type export = src:Spp.Path.node -> dst:Spp.Path.node -> Spp.Path.t -> bool
(** Export policy: whether [src] announces the given newly chosen path to
    [dst].  Withdrawals (epsilon) are always sent to keep neighbors'
    knowledge sound. *)

val export_all : export
(** The SPP default: announce everything to every neighbor. *)

type outcome = {
  state : State.t;
  processed : (Channel.id * int) list;  (** messages consumed per channel *)
  dropped : (Channel.id * int) list;  (** messages dropped per channel *)
  announcements : (Spp.Path.node * Spp.Path.t) list;
      (** route changes written to out-channels this step *)
  pushed : (Channel.id * Spp.Path.t) list;
      (** individual messages appended to channels this step, in order *)
}

type 'state successor = {
  after : 'state;  (** the successor state *)
  pushes : bool;  (** the step appended at least one message *)
  consumes : bool;  (** the step processed at least one message *)
}
(** A step's result as the explorers see it; polymorphic in the state so
    the generic protocols' steps fit the same exploration driver. *)

type next = State.t successor

val next :
  project:bool ->
  collapse:bool ->
  Spp.Instance.t ->
  State.t ->
  Activation.t ->
  next
(** The step alone, under {!export_all}: the successor and the two facts
    partial-order reduction needs, without {!outcome}'s lists.  The entry
    is not checked (like [apply ~check:false]).

    [~project:true] writes every pushed message that is not {!relevant} at
    its receiver as epsilon; [~collapse:true] makes a push replace its
    channel's queue instead of appending to it.  When the parent is a
    fixpoint of the whole-state projection (and, with [~collapse], holds at
    most one message per channel) and [~collapse] is only used under a
    reliable [M_all] entry, the result equals projecting and collapsing
    [(apply st entry).state] as a whole — the explorers' successor, computed
    without rescanning the state.  With both [false] it is exactly
    [(apply st entry).state]. *)

val with_next :
  project:bool ->
  collapse:bool ->
  Spp.Instance.t ->
  State.t ->
  Activation.t ->
  (State.Edit.t successor -> 'a) ->
  'a
(** {!next} without the seal: the continuation sees the successor as the
    domain's scratch edit, which it may read, look up or seal, and which
    is reused once the continuation returns.  [next] is [with_next]
    continued by {!State.Edit.seal}. *)

val relevant : Spp.Instance.t -> Spp.Path.node -> Spp.Arena.id -> bool
(** [relevant inst v r]: [r] is not epsilon and its extension by [v] is
    permitted at [v].  An irrelevant route in a channel into [v], or known
    as [v]'s ρ, can only ever behave like epsilon (receiver relevance). *)

val apply :
  ?check:bool -> ?export:export -> Spp.Instance.t -> State.t -> Activation.t -> outcome
(** The step of {!next} (unprojected, uncollapsed) with its {!outcome}
    recorded.  Raises [Invalid_argument] if the entry is not well-formed
    for the instance.  The entry is {e not} checked against any model; use
    {!Model.validates} for that.

    [~check:false] skips the well-formedness validation.  Applying an
    ill-formed entry unchecked has unspecified (but memory-safe) results. *)

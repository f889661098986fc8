(** Network state (Def. 2.1): path assignments π, known routes ρ, and
    channel contents, plus the last-announced route of each node (the
    interpretation of step 4 of Def. 2.3 described in DESIGN.md).

    Values are immutable.  A state is one int array laid out by its
    instance (π, announcements, ρ, queue lengths, then the messages), in
    which every content has exactly one encoding, so equality and hashing
    are semantic and cost one pass over a few dozen integers.  The map view
    {!channels} is built on demand for callers at the API boundary; steps
    change states through {!Edit}.

    Internally every route is a hash-consed {!Spp.Arena.id}; the [_id]
    accessors and updates below expose that compact view and are the ones
    the engine's hot paths use.  The {!Spp.Path.t}-typed functions are
    materialized views (O(1) thanks to the arena) kept for callers that
    work at pretty-print or analysis boundaries.  Nodes and channels must
    be the instance's: the updates raise [Invalid_argument] on others,
    while the accessors read them as epsilon or empty. *)

type t

val initial : Spp.Instance.t -> t
(** π_d(0) = d, everything else epsilon, all channels empty.  Note that the
    destination has not yet {e announced} its path; its first activation
    injects the initial announcements (Ex. A.1). *)

val pi : t -> Spp.Path.node -> Spp.Path.t
val rho : t -> Channel.id -> Spp.Path.t
val announced : t -> Spp.Path.node -> Spp.Path.t
val channels : t -> Channel.t
(** The queues as a map, built on demand: O(messages). *)

val queue_length : t -> Channel.id -> int
(** [Channel.length (channels t) c] without building the map: O(1). *)

val pi_id : t -> Spp.Path.node -> Spp.Arena.id
val rho_id : t -> Channel.id -> Spp.Arena.id
val announced_id : t -> Spp.Path.node -> Spp.Arena.id

val rho_bindings : t -> (Channel.id * Spp.Path.t) list
(** All non-epsilon known routes. *)

val rho_bindings_id : t -> (Channel.id * Spp.Arena.id) list

val fold_rho_id : (Channel.id -> Spp.Arena.id -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the non-epsilon known routes in channel order, without
    building {!rho_bindings_id}'s list. *)

val assignment : Spp.Instance.t -> t -> Spp.Assignment.t
(** The π component as an assignment. *)

val with_pi_id : t -> Spp.Path.node -> Spp.Arena.id -> t
val with_rho_id : t -> Channel.id -> Spp.Arena.id -> t
val with_announced_id : t -> Spp.Path.node -> Spp.Arena.id -> t

val with_channels : t -> Channel.t -> t

val push_channel : t -> Channel.id -> Spp.Arena.id -> t
(** Append one message to one channel. *)

val drop_first_channel : t -> Channel.id -> int -> t
(** Remove the [i] oldest messages of one channel (at most its length). *)


val max_occupancy : t -> int
(** Length of the longest channel queue, cached: O(1).  Equals
    [Channel.max_occupancy (channels t)]; both explorers consult it on
    every generated successor (the channel-bound prune check). *)

val debug_occupancy_ok : t -> bool
(** [max_occupancy t] agrees with a from-scratch recomputation over
    [channels t].  A debug assertion for the test suite. *)

val best_choice : Spp.Instance.t -> t -> Spp.Path.node -> Spp.Path.t
(** The route the node would choose right now (step 3 of Def. 2.3): the most
    preferred permitted extension of its known routes ρ; the trivial path at
    the destination. *)

val best_choice_id : Spp.Instance.t -> t -> Spp.Path.node -> Spp.Arena.id
(** {!best_choice} in the compact representation: one O(1)
    permitted-extension lookup per neighbor. *)

val is_quiescent : Spp.Instance.t -> t -> bool
(** All channels are empty and every node's chosen route equals its
    announced route; no activation can change any component from such a
    state, so the execution has converged. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** A total order consistent with {!equal}: by encoding length, then
    lexicographic over the encoding (arena ids, i.e. the intern order of
    the routes).  Not the structural path order, but stable within a
    process. *)

val digest : t -> int
(** Constant-time content digest, computed once when the state is built.
    It mixes arena ids, which are canonical process-wide, so equal states
    have equal digests no matter which domain built them.  Collisions are
    possible, so use {!equal} to confirm. *)

val hash : t -> int
(** Alias of {!digest}, kept for [Hashtbl.Make] functors. *)

val pp : Spp.Instance.t -> Format.formatter -> t -> unit

(** {1 Edits}

    A mutable copy of a state, changed in place and sealed into a new
    state once.  The step kernel ({!Step.next}) keeps one per domain, so a
    step allocates at most the sealed array; the explorers look a
    successor up by its edit and seal only the ones they keep. *)

module Edit : sig
  type state := t
  type t

  val create : unit -> t

  val load : t -> state -> unit
  (** Make the edit a copy of the state, reusing its buffer. *)

  val seal : ?digest:int -> t -> state
  (** A new state with the edit's content; the edit is left unchanged.
      [digest], when given, must be {!digest} of the edit, which then is
      not computed again. *)

  val digest : t -> int
  (** [State.digest (seal e)], without sealing. *)

  val max_occupancy : t -> int
  (** [State.max_occupancy (seal e)], without sealing. *)

  val equal : t -> state -> bool
  (** [State.equal (seal e) s], without sealing. *)

  val length : t -> Channel.id -> int

  val message : t -> Channel.id -> int -> Spp.Arena.id
  (** [message e c j] is the [j]th oldest message of [c], from 0. *)

  val announced_id : t -> Spp.Path.node -> Spp.Arena.id
  val set_pi : t -> Spp.Path.node -> Spp.Arena.id -> unit
  val set_announced : t -> Spp.Path.node -> Spp.Arena.id -> unit
  val set_rho : t -> Channel.id -> Spp.Arena.id -> unit

  val best_choice_id : Spp.Instance.t -> t -> Spp.Path.node -> Spp.Arena.id
  (** {!State.best_choice_id} on the edit's current known routes. *)

  val consume : t -> Channel.id -> set_rho:bool -> Spp.Arena.id -> int -> unit
  (** [consume e c ~set_rho kept i] removes the [i] oldest messages of [c]
      (at most all of them) and, when [set_rho], makes [kept] its known
      route: the read of one channel by a step. *)

  val push : t -> Channel.id -> Spp.Arena.id -> unit
  (** Append one message. *)

  val replace : t -> Channel.id -> Spp.Arena.id -> unit
  (** Make the queue the one message. *)
end

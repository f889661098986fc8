(** Activation-sequence entries (Def. 2.2 of the paper).

    An entry is the quadruple (U, X, f, g): the set [active] of updating
    nodes, and for each channel in X a {!read} giving how many messages to
    process ([count], the function f) and which processed messages to drop
    ([drops], the function g; 1-based indices). *)

module IntSet : Set.S with type elt = int

type count = Finite of int | All
(** f(c): [All] is the paper's infinity. *)

type read = { chan : Channel.id; count : count; drops : IntSet.t }

type t = { active : int list; reads : read list }
(** [active] is sorted and duplicate-free (a set); the order of [reads] is
    irrelevant to the semantics since each channel appears at most once. *)

val entry : active:Spp.Path.node list -> reads:read list -> t
val read : ?drops:int list -> ?count:count -> Channel.id -> read
(** [count] defaults to [All], [drops] to none. *)

val single : Spp.Path.node -> read list -> t
(** An entry activating exactly one node. *)

val poll_all : View.t -> Spp.Path.node -> t
(** The REA-style entry: the node reads all messages from all its
    required channels. *)

type error =
  | Empty_active
  | Unknown_channel of Channel.id
  | Reader_not_active of Channel.id
  | Duplicate_channel of Channel.id
  | Negative_count of Channel.id
  | Bad_drops of Channel.id  (** drops outside 1..f(c), or drops with f=0 *)

val pp_error : View.t -> Format.formatter -> error -> unit

val well_formed : View.t -> t -> error list
(** Checks the Def. 2.2 side conditions, with "the channel exists" meaning
    "the receiver may read it" ([View.readable]); the empty list means
    well-formed. *)

val require_well_formed : who:string -> View.t -> t -> unit
(** Raises [Invalid_argument "<who>: <first error>"] unless the entry is
    well-formed. *)

val pp : Spp.Instance.t -> Format.formatter -> t -> unit

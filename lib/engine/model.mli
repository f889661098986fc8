(** The taxonomy of communication models (Sec. 2.2 of the paper).

    A model fixes the three dimensions — channel reliability, number of
    neighbors processed per update, number of messages processed per
    channel — with exactly one node updating per step.  The 24 models are
    named as in the paper: [RMS], [U1O], [REA], ... *)

type reliability = Reliable | Unreliable
type neighbors = N_one | N_multi | N_every
type messages = M_one | M_some | M_forced | M_all

type t = { rel : reliability; nbr : neighbors; msg : messages }

val make : reliability -> neighbors -> messages -> t
val all : t list
(** All 24 models, in the row/column order of Figures 3 and 4:
    O, S, F, A major; 1, M, E minor; reliable before unreliable. *)

val reliable : t list
val unreliable : t list

val to_string : t -> string
(** E.g. "RMS". *)

val of_string : string -> t option
(** Inverse of {!to_string}, tolerant of surrounding whitespace and case
    ([" rms "] parses as [RMS]).  Never raises; [None] on anything that is
    not a model name. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
val compare : t -> t -> int

(** {1 Families named in Sec. 2.3} *)

val is_polling : t -> bool  (** y = A: "poll one/some/all" *)

val is_message_passing : t -> bool  (** y = O *)

val is_queueing : t -> bool  (** RMS and UMS *)

(** {1 Syntactic inclusion}

    [includes a b] holds when every activation sequence of [b] is one of
    [a]; this is the observation behind Prop. 3.3. *)

val includes : t -> t -> bool

(** {1 Entry validation} *)

val validates :
  ?model_of:(Spp.Path.node -> t) -> View.t -> t -> Activation.t -> bool
(** The entry is well-formed ({!Activation.well_formed}), exactly one node
    updates, and its reads satisfy the model's neighbors, messages and
    reliability dimensions, where an E model must read the node's
    [View.required] channels.  [model_of] gives each node its own model
    (heterogeneous mixtures, {!Hetero}); it defaults to the given model
    everywhere. *)

val validates_multi :
  ?model_of:(Spp.Path.node -> t) -> View.t -> t -> Activation.t -> bool
(** Like {!validates} but allowing several nodes to update per step (the
    extension of Ex. A.6): each active node's reads must satisfy its
    model's per-node dimensions. *)

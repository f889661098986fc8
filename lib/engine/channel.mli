(** Directed FIFO communication channels.

    For each undirected edge {u, v} of an instance there are two channels
    (u, v) and (v, u); a channel's contents is the FIFO queue of route
    announcements written by its source and not yet processed by its
    destination (Sec. 2.1).

    Queues hold {!Spp.Arena.id}s — the hash-consed compact representation —
    so pushing, digesting and comparing channel states costs O(1) per
    message instead of O(path length).  Use {!get_paths} /
    {!bindings_paths} to materialize at pretty-print boundaries. *)

type id = { src : Spp.Path.node; dst : Spp.Path.node }

val id : src:Spp.Path.node -> dst:Spp.Path.node -> id
val reverse : id -> id
val compare_id : id -> id -> int
(** Lexicographic by [src], then [dst]: the order [Stdlib.compare] gives,
    computed with integer comparisons only. *)

val equal_id : id -> id -> bool
val pp_id : Spp.Instance.t -> Format.formatter -> id -> unit

module Map : Map.S with type key = id

type contents = Spp.Arena.id list
(** Oldest message first.  Messages are the sender's chosen path;
    {!Spp.Arena.epsilon} is a withdrawal. *)

type t = contents Map.t
(** Channel states of a whole network; absent keys are empty channels, and
    the map never stores empty lists, so structural equality of maps is
    semantic equality of channel states. *)

val empty : t
val get : t -> id -> contents

val get_paths : t -> id -> Spp.Path.t list
(** {!get} materialized; O(1) per message. *)

val length : t -> id -> int

val push : t -> id -> Spp.Arena.id -> t
(** Appends at the back of the queue. *)

val push_path : t -> id -> Spp.Path.t -> t
(** {!push} composed with {!Spp.Arena.intern}. *)

val drop_first : t -> id -> int -> t
(** [drop_first t c i] removes the [i] oldest messages (at most the current
    length). *)

val total_messages : t -> int
val max_occupancy : t -> int
val bindings : t -> (id * contents) list
val bindings_paths : t -> (id * Spp.Path.t list) list

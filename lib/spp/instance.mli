(** Stable Paths Problem instances (Griffin–Shepherd–Wilfong, as used in
    Sec. 2.1 of the paper).

    An instance is an undirected graph with a distinguished destination [d],
    and, for every node [v], a set of permitted simple paths from [v] to [d]
    together with a ranking function (lower rank = more preferred). *)

type t

(** {1 Construction} *)

val make :
  names:string array ->
  dest:Path.node ->
  edges:(Path.node * Path.node) list ->
  permitted:(Path.node * Path.node list list) list ->
  t
(** [make ~names ~dest ~edges ~permitted] builds an instance.

    [permitted] maps each non-destination node to its permitted paths given
    as node lists, most preferred first; ranks are assigned by position.
    Nodes absent from [permitted] have no permitted path (other than the
    destination, whose only permitted path is the trivial path [d]).
    Raises [Invalid_argument] if {!validate} would report an error. *)

val of_ranked :
  names:string array ->
  dest:Path.node ->
  edges:(Path.node * Path.node) list ->
  ranked:(Path.node * (Path.t * int) list) list ->
  t
(** Like {!make} but with explicit ranks (allowing ties through the same
    next hop, as the SPP definition permits). *)

(** {1 Validation} *)

type error =
  | Bad_node of Path.node
  | Not_a_path of Path.node * Path.t  (** not a graph path from v to d *)
  | Not_simple of Path.node * Path.t
  | Rank_tie of Path.node * Path.t * Path.t
      (** equal rank through different next hops *)
  | Dest_has_paths

val pp_error : t -> Format.formatter -> error -> unit

val validate : t -> error list
(** All validation errors; the empty list means the instance is well-formed.
    {!make} and {!of_ranked} raise on any error, so instances obtained from
    them are always well-formed. *)

(** {1 Accessors} *)

val size : t -> int
val names : t -> string array
val name : t -> Path.node -> string

(** Node id of a name; raises [Not_found] if absent. *)
val find_node : t -> string -> Path.node
val dest : t -> Path.node
val nodes : t -> Path.node list
val edges : t -> (Path.node * Path.node) list
val neighbors : t -> Path.node -> Path.node list
(** Sorted neighbor list. *)

val are_adjacent : t -> Path.node -> Path.node -> bool

val permitted : t -> Path.node -> Path.t list
(** Permitted paths of a node, most preferred first.  For the destination
    this is the trivial path [[d]]. *)

val rank : t -> Path.node -> Path.t -> int option
(** Rank of a permitted path at a node; [None] if not permitted. *)

val is_permitted : t -> Path.node -> Path.t -> bool

(** {1 Compact (arena id) lookups}

    O(1) views of the permitted-path tables keyed by {!Arena.id}, frozen
    at construction and read-only afterwards (safe to share across
    domains).  These back the engine's hot path. *)

val trivial_id : t -> Arena.id
(** The id of the destination's trivial path [[d]]. *)

val rank_id : t -> Path.node -> Arena.id -> int option

val permitted_extension : t -> Path.node -> Arena.id -> (Arena.id * int) option
(** [permitted_extension t v r] is [Some (id of v·r, rank)] when the
    extension of route [r] by [v] is permitted at [v], [None] otherwise
    (including when v·r would not be simple).  One hash lookup. *)

val all_permitted : t -> (Path.node * Path.t * int) list
(** Every (node, permitted path, rank) triple. *)

(** {1 Route choice} *)

val best : t -> Path.node -> Path.t list -> Path.t
(** [best t v candidates] is the most preferred permitted path among
    [candidates] (non-permitted candidates are ignored), or
    {!Path.epsilon} if none is permitted.  Rank ties are broken by the
    smaller next-hop id, then by path comparison, for determinism. *)

val channels : t -> (Path.node * Path.node) list
(** All directed channels (u, v): two per undirected edge. *)

val pp : Format.formatter -> t -> unit
val pp_path : t -> Format.formatter -> Path.t -> unit

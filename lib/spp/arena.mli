(** Hash-consed path arena.

    Every {!Path.t} can be interned into a global, domain-safe table and
    represented downstream by an integer {!id}.  Interning is canonical
    within a process: structurally equal paths always receive the same id,
    no matter which domain interns them, so id equality {e is} path
    equality and hashing an id is O(1).  The arena is built as a trie of
    hash-consed cons cells — extending an interned path by one node is a
    single table lookup, and materializing an id back into a {!Path.t} is
    O(1) because the node list is stored (and shared with the tails) at
    intern time.

    Ids are never reclaimed; the arena grows monotonically with the set of
    distinct paths ever interned, which for SPP workloads is bounded by the
    permitted paths of the instances in play (the execution engine only
    ever forms permitted extensions of known routes).  See DESIGN.md,
    "Hash-consed path arena". *)

type id = int
(** The compact representation of a path.  [0] is {!Path.epsilon}; ids are
    dense, assigned in intern order, and stable for the process lifetime.
    Equality and ordering of ids are meaningful (identity, not structural
    order); use {!compare_structural} where the structural path order
    matters. *)

val epsilon : id
(** The id of {!Path.epsilon}; always [0]. *)

val is_epsilon : id -> bool

val intern : Path.t -> id
(** Canonical id of a path.  O(length) table lookups, O(1) when the path
    (and its suffixes) are already interned. *)

val of_nodes : Path.node list -> id
(** [intern] composed with {!Path.of_nodes}. *)

val path : id -> Path.t
(** Materialize.  O(1): the node list is stored at intern time and shared
    structurally with the path's suffixes. *)

val to_nodes : id -> Path.node list

val source : id -> Path.node option
val destination : id -> Path.node option
val next_hop : id -> Path.node option
val length : id -> int
(** All O(1); same semantics as the {!Path} accessors. *)

val extend : Path.node -> id -> id
(** [extend v p] interns v·p in one table lookup.  Raises
    [Invalid_argument] on {!epsilon}, like {!Path.extend}. *)

val contains : Path.node -> id -> bool
(** O(1) for node ids below 62 (a bitmask is stored per path).  Above
    that, O(1) when the path holds no node of 62 or more (one overflow bit
    records whether it does), else an O(length) walk over the stored node
    list that allocates nothing. *)

val suffix : id -> id
(** The path minus its source node ({!epsilon} for one-node paths).
    Raises [Invalid_argument] on {!epsilon}. *)

val equal : id -> id -> bool
val compare : id -> id -> int
val hash : id -> int
(** O(1); [equal] coincides with structural path equality by canonicity.
    [compare] is a total order on ids (intern order), {e not} the
    structural {!Path.compare} order. *)

val compare_structural : id -> id -> int
(** The order of {!Path.compare} on the materialized paths. *)

val size : unit -> int
(** Number of paths interned so far (including {!epsilon}); a measure of
    arena footprint for benchmarks. *)

val pp : names:string array -> Format.formatter -> id -> unit
val to_string : names:string array -> id -> string

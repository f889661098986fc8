(** Edge-cut partitioning of an AS topology into K shards.

    The sharded simulator ({!Shard}) gives each shard its own worker and
    batches announcements that cross shard boundaries, so the partition
    quality — balanced shard sizes, few cut edges — directly controls both
    load balance and cross-partition traffic.

    The partitioner is deterministic in [seed]: farthest-point BFS seeding
    picks K spread-out roots, then balanced greedy BFS growth assigns every
    node to the smallest eligible shard, ties broken by shard id. *)

type t

val make : ?seed:int -> shards:int -> Topology.t -> t
(** Raises [Invalid_argument] if [shards < 1] or exceeds the node count. *)

val shards : t -> int
val topology : t -> Topology.t

val owner : t -> Spp.Path.node -> int
(** The shard owning that node; total over all nodes. *)

val members : t -> int -> Spp.Path.node list
(** Ascending node ids of one shard; every node appears in exactly one
    shard. *)

val size_of : t -> int -> int

val border : t -> (Spp.Path.node * Spp.Path.node) list
(** Directed cut edges [(u, v)] with [owner u <> owner v] and [u, v]
    adjacent — both directions of each cut link appear.  Sorted.  Computed
    from the topology's rows on each call, in O(V + E); nothing is stored. *)

val cut_edges : t -> int
(** Number of undirected topology links whose endpoints live in different
    shards. *)

val cut_fraction : t -> float
(** [cut_edges / total links]; 0 on a linkless topology. *)

val imbalance : t -> float
(** [max shard size / ideal size] where ideal = n/K; 1.0 is perfect. *)

val pp : Format.formatter -> t -> unit

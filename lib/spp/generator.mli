(** Random SPP instances for property tests and benchmarks. *)

type config = {
  nodes : int;  (** including the destination; at least 2 *)
  extra_edges : int;  (** edges added on top of a random spanning tree *)
  max_paths_per_node : int;
  max_path_len : int;
  seed : int;
}

val default : config

val instance : config -> Instance.t
(** A random connected instance: a random spanning tree plus
    [extra_edges] random chords; each node's permitted set is a random
    non-empty subset of its simple paths to the destination (bounded by
    [max_paths_per_node] and [max_path_len]), in a random preference
    order.  Generation is deterministic in [seed]. *)

val safe_instance : config -> Instance.t
(** Like {!instance} but ranking paths by length (shortest first), which
    cannot create a dispute wheel; useful as an always-convergent input. *)

val symmetric_ring : ?prefer_neighbor:bool -> int -> Instance.t
(** [symmetric_ring k] is the fully symmetric k-spoke instance: spokes
    v1..vk each adjacent to the destination and to their clockwise ring
    neighbor, every spoke preferring the route through that neighbor over
    its direct route ([prefer_neighbor], default true — the rotational
    generalization of DISAGREE, k = 2).  With [~prefer_neighbor:false] the
    direct route is preferred and the instance trivially converges.
    Raises [Invalid_argument] when [k < 2]. *)

(** AS-level topologies with business relationships.

    Edges are either provider–customer (directed: money flows up) or
    peer–peer.  The provider–customer relation must be acyclic, as on the
    real Internet. *)

type kind = Provider_customer | Peer_peer

type t

val make :
  names:string array ->
  links:(Spp.Path.node * Spp.Path.node * kind) list ->
  t
(** In a [Provider_customer] link the first node is the provider.  Raises
    [Invalid_argument] on duplicate links (in either orientation, whatever
    their kinds), self-links, or a cycle in the provider–customer
    hierarchy; duplicates are reported before cycles. *)

val size : t -> int
val names : t -> string array
val name : t -> Spp.Path.node -> string

val neighbors : t -> Spp.Path.node -> Spp.Path.node list
(** Ascending neighbor ids. *)

val degree : t -> Spp.Path.node -> int

val digest : t -> string
(** Hex digest of the names and the link list (order-sensitive), for
    determinism goldens and bench artifacts.  Two topologies with equal
    digests compile to identical instances. *)

type relationship = Customer | Peer | Provider

val relationship : t -> of_:Spp.Path.node -> Spp.Path.node -> relationship option
(** [relationship t ~of_:u v]: how [u] sees [v] ([Customer] means [v] is a
    customer of [u]); [None] if not adjacent. *)

val edges : t -> (Spp.Path.node * Spp.Path.node * kind) list

type rows = {
  ids : int array array;  (** [ids.(v)]: neighbor ids of [v], ascending *)
  rel : relationship array array;
      (** [rel.(v).(i)]: how [v] sees [ids.(v).(i)] *)
  back : int array array;
      (** [back.(v).(i)]: the index of [v] in [ids.(ids.(v).(i))] *)
}

val rows : t -> rows
(** The adjacency rows, built once by {!make}.  They are the topology's
    own arrays, shared and not copied: callers must not mutate them. *)

type config = {
  tier1 : int;  (** fully peered core ASes *)
  tier2 : int;  (** mid-tier: customers of tier 1, some mutual peering *)
  stubs : int;  (** customers of tier 2 (or tier 1) *)
  seed : int;
}

val default_config : config

val generate : config -> t
(** A random three-tier hierarchy, deterministic in [seed]. *)

type scaled_config = {
  s_tier1 : int;  (** fully peered core *)
  s_tier2 : int;  (** transit ASes: customers of 1-2 tier-1s *)
  s_stubs : int;  (** stub ASes: customers of 1-2 tier-2s *)
  s_peer_links : int;  (** budget of random tier-2/tier-2 peering links *)
  s_seed : int;
}

val default_scaled_config : scaled_config
(** A 10k-node hierarchy (10 core, 490 transit, 9500 stubs). *)

val generate_scaled : scaled_config -> t
(** The internet-scale generator: same Gao–Rexford three-tier shape as
    {!generate}, but O(V + E) construction and {e preferential} stub
    attachment (stubs pick providers with probability proportional to the
    providers' current customer count), so tier-2 provider degrees follow
    the power law of the measured AS graph.  Deterministic in [s_seed];
    practical at 10k–100k nodes. *)

val pp : Format.formatter -> t -> unit

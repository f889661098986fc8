(** What the activation semantics of Defs. 2.2-2.4 see of a network: who
    may activate, which channels each node may read and which it must
    read.  Entry checks, model validation, fair schedules, fairness
    bookkeeping and the timed simulator never look inside a message, so
    each is written once over a view and serves both the SPP stack
    ({!spp}) and every [Generic.Make (P)] (built from [P.in_channels]). *)

type t = {
  nodes : Spp.Path.node list;  (** all nodes, ascending *)
  readable : Spp.Path.node -> Channel.id list;
      (** the channels into a node that an entry may read *)
  required : Spp.Path.node -> Channel.id list;
      (** the channels into a node that a fair execution must read and an
          E-model entry reads; a subset of [readable] *)
  node_name : Spp.Path.node -> string;
}

val spp : Spp.Instance.t -> t
(** The SPP view: a node may read the channel from each neighbor, and
    must read all of them except at the destination, whose inbox can
    never affect a route choice and so is not tracked (DESIGN.md). *)

val tracked : t -> Channel.id list
(** Every required channel, in {!Channel.compare_id} order: the channels
    a fair execution reads infinitely often. *)

val pp_channel : t -> Format.formatter -> Channel.id -> unit
(** [(src,dst)] by node names. *)

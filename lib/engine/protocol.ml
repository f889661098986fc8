(* The pluggable-protocol interface (PR 7).

   The paper's question — how does the communication model change
   convergence? — is not specific to path-vector SPP: the activation-entry
   semantics of Defs. 2.2-2.4 (who activates, which channels are read, how
   many messages, which are dropped) never look inside a message.  A
   protocol is therefore a module supplying exactly the parts the engine
   cannot know:

   - the message payload, pre-interned to an [int] id (generalizing what
     {!Spp.Arena} ids do for routes: O(1) equality, digestible, and
     meaningful only to the protocol);
   - per-node local state with equality and a digest;
   - the Def. 2.3-shaped update rule, split into the two phases the engine
     orders: {!S.receive} folds the kept messages of one read into the
     local state (phase 1, in read order), and {!S.update} recomputes the
     node's choice and announces to out-channels (phases 2-3);
   - a convergence predicate replacing SPP quiescence.

   Everything else is shared.  The 24 [wxy] activation validators,
   fairness bookkeeping, schedulers and the timed batch loop need only the
   protocol's channel {!View} (its nodes, [in_channels] and node names),
   which serves the SPP stack too; channel queues, state digests and
   exploration are {!Generic.Make} and [Modelcheck.Gexplore.Make].
   Path-vector SPP is instance one ([Protocols.Path_vector]); gossip rumor
   spread and push-sum averaging are instances two and three. *)

type node = int

module type S = sig
  val name : string
  (** Short identifier, used in artifacts and error messages. *)

  type instance
  (** The static problem: topology plus whatever the protocol needs
      (rankings, initial values, a rumor source...). *)

  val nodes : instance -> node list
  (** All nodes, ascending.  Node ids are dense small ints. *)

  val node_name : instance -> node -> string

  val in_channels : instance -> node -> Channel.id list
  (** The channels node [v] can read, and must read under an E model, in
      canonical (ascending-source) order: both [readable] and [required]
      of the protocol's {!View}.  An empty list exempts the node from the
      neighbors-dimension read obligations — the SPP destination's
      untracked inbox is the canonical example. *)

  type local
  (** Per-node local state (route assignment + last-heard routes for
      path-vector; infected bit for gossip; (sum, weight) for push-sum). *)

  val initial_local : instance -> node -> local
  val equal_local : local -> local -> bool
  val compare_local : local -> local -> int

  val local_digest : node -> local -> int
  (** Mixed into the state digest; must agree with [equal_local].  Use
      {!Mix.mix3}/{!Mix.mix4} over interned ids. *)

  val observable : instance -> node -> local -> int
  (** Digest of the node's externally observable choice (the route [pi]
      for path-vector).  The divergence analysis only reports a fair cycle
      as divergence when some node's observable changes along it — or when
      the cycle is stuck (see [stuck_is_divergent]). *)

  (* -- messages ---------------------------------------------------- *)

  val pp_msg : instance -> Format.formatter -> int -> unit

  val receive : instance -> node -> local -> src:node -> int list -> local
  (** [receive inst v l ~src kept] folds the kept messages of one read of
      channel [(src, v)] into [l], oldest first.  Called once per read that
      processed at least one message; [kept] excludes dropped messages and
      may be empty (everything processed was dropped). *)

  val update : instance -> node -> local -> local * (Channel.id * int) list
  (** Def. 2.3 phases 2-3 for one activated node: recompute the local
      choice from what was heard, and return the messages to push, in
      push order.  Must only depend on [v]'s own local state (the engine
      may interleave updates of simultaneously active nodes). *)

  (* -- convergence -------------------------------------------------- *)

  val node_converged : instance -> node -> local -> bool

  val drains : bool
  (** Whether global convergence additionally requires every channel to be
      empty (SPP quiescence does; gossip's "all infected" does not). *)

  (* -- exploration hooks -------------------------------------------- *)

  val idempotent : bool
  (** [receive] depends only on the {e last} kept message of a read (true
      for path-vector route announcements and gossip rumors, false for
      push-sum where every message carries mass).  When true, reliable
      polling models admit the exact last-message channel collapse. *)

  val stuck_is_divergent : bool
  (** Whether a fair cycle that changes no observable but from which no
      converged state is reachable counts as divergence.  True for gossip
      (a dropped rumor strands the system un-infected forever); false for
      path-vector, whose legacy oscillation analysis requires a changing
      [pi] — kept bit-compatible by the parity suite. *)

  val project_msg : instance -> dst:node -> int -> int
  (** Observational projection of a queued message as seen by its receiver
      (receiver-relevance, see [Modelcheck.Explore.project_state]).
      Message counts are preserved; only the payload may be coarsened.
      [Fun.id]-like for protocols without a projection. *)

  val project_local : instance -> node -> local -> local

  val pp_local : instance -> node -> Format.formatter -> local -> unit
end

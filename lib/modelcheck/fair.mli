(** The fair-cycle kernel behind {!Oscillation}, {!Gexplore} and
    {!Refute}, with the verdict it leads to and that verdict's check by
    replay.

    It works on the explorer's compact graph ({!csr}): CSR adjacency over
    edge ids and one shared label per edge.  {!make} adds each edge's
    source and a label slot: edges whose labels name the same
    [reads]/[drops]/[cleans] channel lists share a slot, and each slot
    holds those sets once, as bitmasks of [ceil (k / 62)] words ([k]
    distinct channels; tracked channels take the lowest bits).  The
    search then looks for a strongly connected edge set that reads every
    tracked channel, cleans every channel it drops on, and satisfies the
    caller's {!goal}: it splits the graph into strongly connected
    components and, per component, drops the edges whose drops nothing in
    the component cleans, re-splitting until the component is
    drop-stable.  Every split numbers its nodes locally, so one step costs
    O(component edges), not O(states).  Components are visited in
    Tarjan's completion order (reverse topological: sink components
    first), so the verdict and the witness are deterministic (DESIGN.md). *)

type csr = {
  first : int array;
      (** [n + 1] offsets: state [i]'s edges are the ids
          [first.(i) .. first.(i+1) - 1]; [first.(0) = 0] *)
  dst : int array;  (** edge id to target state *)
  label : Enumerate.labeled array;  (** edge id to label *)
}
(** A graph of states [0 .. n-1] in compressed sparse rows.  Edge ids
    follow state order, then row order; that order decides which witness
    is found.  Edges that carry one label value share it, which is what
    makes {!make} cheap: the explorers hand out one value per memoised
    label. *)

(** An edge log in expansion order, for searches that build a {!csr} as
    they go. *)
module Rows : sig
  type t

  val create : unit -> t

  val add : t -> int -> Enumerate.labeled -> unit
  (** [add t dst label] appends an edge to the open row. *)

  val close : t -> int -> unit
  (** [close t i] ends the open row as state [i]'s edges. *)

  val edges : t -> int
  (** The edges added so far. *)

  val to_list : t -> (int -> Enumerate.labeled -> 'e) -> (int * 'e list) list
  (** The closed rows, newest first: each as its state and its edges,
      [f dst label] in the order they were added. *)

  val csr : n:int -> t list -> csr
  (** The graph of states [0 .. n-1] whose rows the logs hold (each state
      in at most one row of one log; a state without a row has no edges).
      A state's edges keep the order they were added in. *)
end

type t

val make : tracked:Engine.Channel.id list -> csr -> t
(** The kernel over a CSR graph, which it keeps (not copies).  It adds
    two words per edge (the source state and the label slot) and the
    masks per distinct label; it looks at each edge's label once, and
    compares it by physical identity before it compares contents.
    Raises [Invalid_argument] if the arrays are not a CSR graph (ragged
    lengths, [first] not ending at the edge count). *)

type goal = {
  differs : int -> int -> bool;
      (** an observable change between two states (path assignment, or a
          protocol's observable) *)
  stuck_ok : int -> bool;
      (** a fair cycle through this state counts even without a change *)
}
(** A drop-stable component is accepted when it reads every tracked
    channel and either holds two states that [differs], or [stuck_ok]
    holds on all its states. *)

val find :
  ?metrics:Engine.Metrics.t ->
  ?live:(int -> bool) ->
  t ->
  goal ->
  (int * Engine.Activation.t list) option
(** The first accepted component's witness: a start state and a closed
    walk from it, over the component's edges, that shows the change (or
    any loop, for a stuck component), reads every tracked channel and
    cleans every channel it drops on.  Only edges between [live] states
    (default: all) are searched.  With [metrics], the number of component
    splits and the edges fed to them are added to
    {!Engine.Metrics.fair_splits} and {!Engine.Metrics.fair_edges_scanned}. *)

val reaching : t -> bool array -> bool array
(** [reaching t marked]: the states from which some [marked] state is
    reachable over every edge of the graph (the marked ones included). *)

val prefix : t -> int -> Engine.Activation.t list option
(** The entries along a shortest path from state 0 to the given state,
    over every edge of the graph. *)

(** {1 Verdicts} *)

type witness = {
  prefix : Engine.Activation.t list;  (** from the initial state to the cycle *)
  cycle : Engine.Activation.t list;  (** a fair closed walk showing the change *)
}

type verdict =
  | Oscillates of witness  (** a fair execution that never converges *)
  | Converges  (** exhaustive over the bounded space: no fair oscillation *)
  | Unknown of string  (** bounded exploration was pruned or truncated *)

val verdict_name : string -> verdict -> string
(** [verdict_name found]: [found] names {!Oscillates} (an adapter's word). *)

val pp_verdict : string -> Format.formatter -> verdict -> unit

val incomplete : pruned:bool -> truncated:bool -> string option
(** Why a graph that was [pruned] (by the channel bound) or [truncated]
    (by the state limit) cannot prove that no answer exists. *)

val decide :
  ?metrics:Engine.Metrics.t ->
  ?live:(int -> bool) ->
  t ->
  goal ->
  pruned:bool ->
  truncated:bool ->
  verdict
(** {!find}'s witness with its {!prefix}, else {!Unknown} with the
    {!incomplete} reason, else {!Converges}. *)

(** {1 Replay} *)

type 'state replay = {
  initial : 'state;
  apply : 'state -> Engine.Activation.t -> 'state * Engine.Fairness.counts;
  valid : Engine.Activation.t -> bool;  (** legal in the model *)
  tracked : Engine.Channel.id list;
  run : max_steps:int -> Engine.Scheduler.t -> Engine.Executor.stop;
      (** the stack's executor from [initial] *)
}
(** A stack's step semantics, as a witness replay needs them. *)

val replays : ?max_steps:int -> 'state replay -> witness -> bool
(** The witness check, independent of the search: every entry is
    [valid], the cycle applied after the prefix is fair
    ({!Engine.Fairness.replayed_cycle_is_fair}), and the executor, playing
    the prefix once and then the cycle forever, stops on a state cycle.
    [max_steps] defaults to [max 5000 (|prefix| + 4 |cycle| + 10)]. *)

(** The fair-cycle kernel behind {!Oscillation}, {!Gexplore} and
    {!Refute}.

    A state graph is compacted once into flat arrays: CSR adjacency over
    edge ids, each edge's activation entry, and its [reads]/[drops]/[cleans]
    channel sets as bitmasks of [ceil (k / 62)] words per edge ([k] distinct
    channels; tracked channels take the lowest bits).  The search then
    looks for a strongly connected edge set that reads every tracked
    channel, cleans every channel it drops on, and satisfies the caller's
    {!goal}: it splits the graph into strongly connected components and,
    per component, drops the edges whose drops nothing in the component
    cleans, re-splitting until the component is drop-stable.  Every split
    numbers its nodes locally, so one step costs O(component edges), not
    O(states).  Components are visited in Tarjan's completion order
    (reverse topological: sink components first), so the verdict and the
    witness are deterministic (DESIGN.md). *)

type t

val make :
  n:int ->
  tracked:Engine.Channel.id list ->
  out:(int -> (int -> Enumerate.labeled -> unit) -> unit) ->
  t
(** [make ~n ~tracked ~out] compacts a graph of states [0 .. n-1]:
    [out i f] must call [f dst label] for each edge leaving state [i],
    in the same order every time (the order decides which witness is
    found): [out] is called exactly twice per state. *)

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

val prefix : t -> int -> Engine.Activation.t list option
(** The entries along a shortest path from state 0 to the given state,
    over every edge of the graph. *)

(** A discrete-event, timed wrapper around the step semantics: per-node
    activation timers (MRAI-style batching) and per-link propagation
    delays.

    This grounds Sec. 4's discussion of BGP wait times: every timed run
    induces an ordinary activation sequence (batch mode yields wMS-shaped
    entries, event mode w1O-shaped ones), so all taxonomy results apply,
    while wall-clock convergence time and message counts become
    measurable.

    The batch loop, the arrival bookkeeping and the result are written
    once over a {!stack}: the SPP stack ({!spp}) and every
    [Generic.Make (P)] ([timed]) supply only their step.  Event-driven
    mode is SPP's own: its first event activates the destination. *)

type mode =
  | Batch  (** at each timer tick, read everything that has arrived *)
  | Event_driven  (** process each message immediately upon arrival *)

type config = {
  mode : mode;
  mrai : Spp.Path.node -> int;  (** timer interval (ticks) in batch mode *)
  link_delay : Channel.id -> int;  (** propagation delay per channel *)
  horizon : int;  (** simulation time limit *)
}

val default : config
(** Batch mode, interval 1, unit delays, horizon 100_000. *)

type effect = {
  processed : (Channel.id * int) list;  (** messages consumed per channel *)
  pushed : Channel.id list;  (** the channel of each message appended, in order *)
  changed : bool;  (** the step changed a node's announced choice *)
}

type 's stack = {
  view : View.t;
  initial : 's;
  step : 's -> Activation.t -> 's * effect;
  converged : 's -> bool;
}
(** What the timed loop needs of an engine: its channel view, its initial
    state, its Def. 2.3 step and its convergence predicate. *)

type 's result = {
  converged : bool;
  finish_time : int;  (** time at which the network converged *)
  last_change : int;  (** time of the last step that changed a choice *)
  messages : int;  (** total messages sent *)
  activations : int;
  final : 's;  (** the state at the end of the run *)
}

val batch : config -> 's stack -> 's result
(** Batch mode ([config.mode] is not read): at every tick, each node
    whose MRAI interval divides the clock activates and reads, on each
    required channel, the messages that have arrived by then.  A run whose
    initial state has converged finishes at time 0. *)

val spp : Spp.Instance.t -> State.t stack
(** The SPP stack; a step changes a choice when it announces a route. *)

val run : ?config:config -> Spp.Instance.t -> State.t result
(** An SPP run in either mode; take {!State.assignment} of [final] for
    the routes. *)

val mrai_sweep :
  ?intervals:int list -> ?link_delay:(Channel.id -> int) -> 's stack -> (int * 's result) list
(** Batch-mode runs with a uniform MRAI interval per entry of
    [intervals] (default 1, 2, 4, 8, 16).  With heterogeneous
    [link_delay]s, small intervals act on partial information (more
    transient announcements) while large ones batch it (fewer messages,
    later finish) — the trade-off discussed in Sec. 4. *)

val spread_delays : Spp.Instance.t -> Channel.id -> int
(** A deterministic heterogeneous delay assignment (1..6 ticks). *)

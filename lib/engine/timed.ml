type mode = Batch | Event_driven

type config = {
  mode : mode;
  mrai : Spp.Path.node -> int;
  link_delay : Channel.id -> int;
  horizon : int;
}

let default =
  { mode = Batch; mrai = (fun _ -> 1); link_delay = (fun _ -> 1); horizon = 100_000 }

type effect = { processed : (Channel.id * int) list; pushed : Channel.id list; changed : bool }

type 's stack = {
  view : View.t;
  initial : 's;
  step : 's -> Activation.t -> 's * effect;
  converged : 's -> bool;
}

type 's result = {
  converged : bool;
  finish_time : int;
  last_change : int;
  messages : int;
  activations : int;
  final : 's;
}

(* A run in progress: the state, the arrival times of its queued messages
   (oldest first, in lockstep with the channel queues) and the counters. *)
type 's run = {
  cfg : config;
  stack : 's stack;
  mutable state : 's;
  mutable arrivals : int list Channel.Map.t;
  mutable messages : int;
  mutable activations : int;
  mutable last_change : int;
}

let start cfg stack =
  {
    cfg;
    stack;
    state = stack.initial;
    arrivals = Channel.Map.empty;
    messages = 0;
    activations = 0;
    last_change = 0;
  }

let arrivals_of r c = Option.value ~default:[] (Channel.Map.find_opt c r.arrivals)
let arrived r c ~now = List.length (List.filter (fun t -> t <= now) (arrivals_of r c))

(* Step [entry] at time [now]: the processed messages' arrival times are
   popped and the pushed ones stamped with their link delay. *)
let activate r ~now entry =
  let state, e = r.stack.step r.state entry in
  List.iter
    (fun (c, k) ->
      r.arrivals <-
        Channel.Map.add c (List.filteri (fun i _ -> i >= k) (arrivals_of r c)) r.arrivals)
    e.processed;
  List.iter
    (fun c ->
      r.arrivals <- Channel.Map.add c (arrivals_of r c @ [ now + r.cfg.link_delay c ]) r.arrivals)
    e.pushed;
  r.state <- state;
  r.activations <- r.activations + 1;
  r.messages <- r.messages + List.length e.pushed;
  if e.changed then r.last_change <- now;
  e

let result r finish =
  {
    converged = r.stack.converged r.state;
    finish_time = Option.value ~default:r.cfg.horizon finish;
    last_change = r.last_change;
    messages = r.messages;
    activations = r.activations;
    final = r.state;
  }

let batch cfg stack =
  let r = start cfg stack in
  let finish = ref (if stack.converged stack.initial then Some 0 else None) in
  let now = ref 0 in
  while !finish = None && !now <= cfg.horizon do
    let t = !now in
    List.iter
      (fun v ->
        if t mod max 1 (cfg.mrai v) = 0 then
          let reads =
            List.filter_map
              (fun c ->
                match arrived r c ~now:t with
                | 0 -> None
                | k -> Some (Activation.read ~count:(Activation.Finite k) c))
              (stack.view.required v)
          in
          ignore (activate r ~now:t (Activation.single v reads)))
      stack.view.nodes;
    if stack.converged r.state then finish := Some t;
    incr now
  done;
  result r !finish

let spp inst =
  {
    view = View.spp inst;
    initial = State.initial inst;
    step =
      (fun st entry ->
        let o = Step.apply inst st entry in
        ( o.Step.state,
          {
            processed = o.Step.processed;
            pushed = List.map fst o.Step.pushed;
            changed = o.Step.announcements <> [];
          } ));
    converged = State.is_quiescent inst;
  }

(* Event queue: message arrivals trigger a single read; the initial event
   activates the destination. *)
let event_driven cfg inst =
  let r = start cfg (spp inst) in
  let module PQ = Set.Make (struct
    type t = int * int * Channel.id option (* time, seq, channel *)

    let compare = compare
  end) in
  let seq = ref 0 in
  let queue = ref PQ.empty in
  let push_event time chan =
    incr seq;
    queue := PQ.add (time, !seq, chan) !queue
  in
  push_event 0 None;
  let finish = ref None in
  while !finish = None && not (PQ.is_empty !queue) do
    let ((now, _, chan) as ev) = PQ.min_elt !queue in
    queue := PQ.remove ev !queue;
    if now > cfg.horizon then finish := Some now
    else begin
      let entry =
        match chan with
        | None -> Activation.single (Spp.Instance.dest inst) []
        | Some c ->
          Activation.single c.Channel.dst [ Activation.read ~count:(Activation.Finite 1) c ]
      in
      let e = activate r ~now entry in
      List.iter (fun c -> push_event (now + cfg.link_delay c) (Some c)) e.pushed;
      if PQ.is_empty !queue && r.stack.converged r.state then finish := Some now
    end
  done;
  if !finish = None && r.stack.converged r.state then finish := Some 0;
  result r !finish

let run ?(config = default) inst =
  match config.mode with
  | Batch -> batch config (spp inst)
  | Event_driven -> event_driven config inst

let spread_delays _inst (c : Channel.id) =
  1 + ((c.Channel.src * 7) + (c.Channel.dst * 13)) mod 6

let mrai_sweep ?(intervals = [ 1; 2; 4; 8; 16 ]) ?(link_delay = default.link_delay) stack =
  List.map (fun i -> (i, batch { default with mrai = (fun _ -> i); link_delay } stack)) intervals

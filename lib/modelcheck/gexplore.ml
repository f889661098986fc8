(* Protocol-generic explicit-state exploration and divergence analysis.

   [Make (P)] is {!Explore} + {!Oscillation} for any {!Engine.Protocol.S}.
   Like {!Oscillation}, it supplies only a goal and its step semantics:
   the state space is explored by the shared {!Explore.Driver} (one
   canonical entry per observational class via {!Enumerate.memo}, one
   step per effect group, since [E.Step.apply] skips a read that
   processes no message as the SPP kernel does; pruning
   and truncation as for SPP; [Driver.run ~pool] adds work stealing), the
   verdict rule and its reasons are {!Fair.decide}, and a witness is
   checked by {!Fair.replays} under [P]'s step and the shared executor
   loop.  An [Oscillates] verdict is named "diverges" here.

   The goal and semantics differ from SPP's through the protocol hooks:

   - Convergence is [P]'s predicate ([E.State.converged]), not SPP
     quiescence; converged states are left out of the cycle search (they
     are absorbing for every shipped protocol).
   - A fair cycle diverges when some node's [P.observable] changes along
     it, or, for protocols with [P.stuck_is_divergent], when no converged
     state is reachable from it (a gossip rumor dropped on every copy).
     That doomed clause needs a complete graph, so pruning or truncation
     disables it.
   - The last-message channel collapse also requires [P.idempotent]
     (push-sum messages carry mass).

   The [Protocols.Path_vector] instance is pinned by the parity suite to
   the SPP explorer's verdicts and state counts. *)

module Make (P : Engine.Protocol.S) = struct
  module E = Engine.Generic.Make (P)

  type config = Explore.config = { channel_bound : int; max_states : int }

  let default_config = Explore.default_config

  type edge = Explore.edge = { dst : int; label : Enumerate.labeled }

  module Driver = Explore.Driver (Explore.Sealed (E.State))

  type graph = Driver.compact = {
    states : E.State.t array;
    csr : Fair.csr;
    pruned : bool;
    truncated : bool;
  }

  let collapsible inst (model_of : int -> Engine.Model.t) =
    P.idempotent
    && List.for_all
         (fun v ->
           let m = model_of v in
           m.Engine.Model.rel = Engine.Model.Reliable
           && m.Engine.Model.msg = Engine.Model.M_all)
         (P.nodes inst)

  (* The protocol's state space for the shared driver.  A successor is the
     whole recorded step, collapsed and projected afterwards; no
     partial-order hook applies to a generic protocol. *)
  let space inst ~model_of =
    let collapse =
      if collapsible inst model_of then E.State.collapse_last else Fun.id
    in
    let normalize st = E.State.project inst (collapse st) in
    let successors =
      Enumerate.memo ~nodes:(P.nodes inst) ~required:(P.in_channels inst) ~model_of ()
    in
    {
      Driver.initial = E.State.initial inst;
      normalize;
      successors = (fun st -> successors (E.State.channel_length st));
      next =
        (fun st entry k ->
          let o = E.Step.apply ~check:false inst st entry in
          k
            {
              Engine.Step.after = normalize o.E.Step.state;
              pushes = o.E.Step.pushed <> [];
              consumes = o.E.Step.processed <> [];
            });
      ample = None;
    }

  (* Sequential, so the numbering is deterministic (the parity suite pins
     the path-vector instance's to the SPP explorer's). *)
  let explore_with ?(config = default_config) inst ~model_of =
    Driver.run config (space inst ~model_of)

  let explore ?config inst model =
    explore_with ?config inst ~model_of:(fun _ -> model)

  (* ---------------------------------------------------------------- *)
  (* Divergence analysis: the goal and the step semantics; the verdict
     rule and the replay check are {!Fair}'s. *)

  type verdict = Fair.verdict = Oscillates of Fair.witness | Converges | Unknown of string

  let verdict_name = Fair.verdict_name "diverges"

  let observable_differs inst a b =
    List.exists
      (fun v ->
        P.observable inst v (E.State.local a v)
        <> P.observable inst v (E.State.local b v))
      (P.nodes inst)

  let analyze_graph inst graph =
    let converged = Array.map (E.State.converged inst) graph.states in
    let fair = Fair.make ~tracked:(Engine.View.tracked (E.view inst)) graph.csr in
    let can_converge = Fair.reaching fair converged in
    let goal =
      {
        Fair.differs =
          (fun a b -> observable_differs inst graph.states.(a) graph.states.(b));
        (* The doomed clause certifies "no converged state is reachable",
           which a pruned or truncated graph cannot: a dropped edge might
           be the escape route. *)
        stuck_ok =
          (fun i ->
            P.stuck_is_divergent
            && (not graph.pruned)
            && (not graph.truncated)
            && not can_converge.(i));
      }
    in
    (* A fair cycle through a converged state is not divergence: search
       only the edges between non-converged states. *)
    Fair.decide ~live:(fun i -> not converged.(i)) fair goal ~pruned:graph.pruned
      ~truncated:graph.truncated

  let analyze ?config inst model =
    analyze_graph inst (explore ?config inst model)

  let verify_witness ?max_steps inst model =
    let count = List.map (fun (c, msgs) -> (c, List.length msgs)) in
    Fair.replays ?max_steps
      {
        Fair.initial = E.State.initial inst;
        apply =
          (fun st e ->
            let o = E.Step.apply inst st e in
            ( o.E.Step.state,
              { Engine.Fairness.processed = count o.E.Step.processed; dropped = count o.E.Step.dropped } ));
        valid = Engine.Model.validates (E.view inst) model;
        tracked = Engine.View.tracked (E.view inst);
        run = (fun ~max_steps sched -> (E.Executor.run ~max_steps inst sched).E.Executor.stop);
      }
end

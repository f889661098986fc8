open Engine
open Spp

type event = { instance : Instance.t; state : State.t }

let sever topo ~dest ~state ~link:(a, b) =
  if Topology.relationship topo ~of_:a b = None then
    invalid_arg "Failure.sever: no such link";
  let links =
    List.filter
      (fun (x, y, _) -> not ((x = a && y = b) || (x = b && y = a)))
      (Topology.edges topo)
  in
  let topo' = Topology.make ~names:(Topology.names topo) ~links in
  let inst' = Policy.compile topo' ~dest in
  (* Keep every node's current (possibly stale) route and announcement and
     all surviving knowledge and in-flight messages; everything carried by
     the dead link is dropped by the transplant. *)
  let st =
    Surgery.transplant ~old_instance:(Policy.compile topo ~dest) ~new_instance:inst' state
  in
  (topo', { instance = inst'; state = st })

type reconvergence = {
  converged : bool;
  steps : int;
  messages : int;
  rerouted : int;
  lost : int;
  assignment : Assignment.t;
}

let reconverge ?metrics ?(max_steps = 50_000) event ~before ~model =
  let inst = event.instance in
  let messages = ref 0 in
  let r =
    Executor.run_streaming ?metrics ~max_steps ~state:event.state
      ~on_step:(fun (s : Trace.step) ->
        messages := !messages + List.length s.Trace.outcome.Step.pushed)
      inst
      (Scheduler.round_robin inst model)
  in
  let messages = !messages in
  let assignment = State.assignment inst r.Executor.final in
  let rerouted =
    List.length
      (List.filter
         (fun v ->
           not (Path.equal (Assignment.get assignment v) (Assignment.get before v)))
         (Instance.nodes inst))
  in
  let lost =
    List.length
      (List.filter
         (fun v ->
           v <> Instance.dest inst && Path.is_epsilon (Assignment.get assignment v))
         (Instance.nodes inst))
  in
  {
    converged = r.Executor.stop = Executor.Converged;
    steps = r.Executor.steps;
    messages;
    rerouted;
    lost;
    assignment;
  }

open Engine

type result = {
  converged : bool;
  steps : int;
  messages : int;
  assignment : Spp.Assignment.t;
}

let run ?metrics ?(max_steps = 50_000) ?(use_export_policy = true) topo ~dest ~model
    ~scheduler =
  let inst = Policy.compile topo ~dest in
  let export =
    if use_export_policy then Policy.export_policy topo else Step.export_all
  in
  let messages = ref 0 in
  let r =
    Executor.run_streaming ~export ~validate:model ?metrics ~max_steps
      ~on_step:(fun (s : Trace.step) ->
        messages := !messages + List.length s.Trace.outcome.Step.pushed)
      inst (scheduler inst model)
  in
  {
    converged = r.Executor.stop = Executor.Converged;
    steps = r.Executor.steps;
    messages = !messages;
    assignment = State.assignment inst r.Executor.final;
  }

let converges_in_all_models ?max_steps topo ~dest =
  List.for_all
    (fun model ->
      let r = run ?max_steps topo ~dest ~model ~scheduler:Scheduler.round_robin in
      r.converged)
    Model.all

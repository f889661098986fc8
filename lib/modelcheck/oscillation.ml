open Engine
open Spp

type witness = Fair.witness = { prefix : Activation.t list; cycle : Activation.t list }

type verdict = Fair.verdict = Oscillates of witness | Converges | Unknown of string

let verdict_name = Fair.verdict_name "oscillates"
let pp_verdict = Fair.pp_verdict "oscillates"

(* Path assignments differ between two states?  O(1) per node on ids. *)
let pi_differs inst a b =
  List.exists
    (fun v -> not (Spp.Arena.equal (State.pi_id a v) (State.pi_id b v)))
    (Instance.nodes inst)

let analyze_compact ?metrics inst (graph : Explore.compact) =
  let states = graph.Explore.states in
  Fair.decide ?metrics
    (Fair.make ~tracked:(View.tracked (View.spp inst)) graph.Explore.csr)
    {
      Fair.differs = (fun a b -> pi_differs inst states.(a) states.(b));
      stuck_ok = (fun _ -> false);
    }
    ~pruned:graph.Explore.pruned ~truncated:graph.Explore.truncated

let analyze_graph ?metrics inst graph = analyze_compact ?metrics inst (Explore.of_view graph)

let analyze ?config ?reduction ?domains ?metrics inst model =
  let graph = Explore.explore_compact ?config ?reduction ?domains ?metrics inst model in
  Metrics.timed ?m:metrics "analyze" (fun () -> analyze_compact ?metrics inst graph)

let analyze_hetero ?config ?reduction ?domains ?metrics inst hetero =
  let models = List.map (Hetero.model_of hetero) (Instance.nodes inst) in
  let collapsible = List.for_all Explore.collapses models in
  let graph =
    Explore.explore_with ?config ?reduction ?domains ?metrics inst
      ~successors:(Enumerate.groups_with ?metrics inst (Hetero.model_of hetero))
      ~collapse:collapsible
  in
  Metrics.timed ?m:metrics "analyze" (fun () -> analyze_compact ?metrics inst graph)

(* [model_of] gives each node its own model; [model] is then unused. *)
let replay ?model_of inst model =
  let view = View.spp inst in
  {
    Fair.initial = State.initial inst;
    apply =
      (fun st e ->
        let o = Step.apply inst st e in
        (o.Step.state, { Fairness.processed = o.Step.processed; dropped = o.Step.dropped }));
    valid = Model.validates ?model_of view model;
    tracked = View.tracked view;
    run = (fun ~max_steps sched -> (Executor.run_streaming ~max_steps inst sched).Executor.stop);
  }

let verify_witness ?max_steps inst model = Fair.replays ?max_steps (replay inst model)

let verify_witness_hetero ?max_steps inst hetero =
  let model_of = Hetero.model_of hetero in
  Fair.replays ?max_steps (replay ~model_of inst (model_of (Instance.dest inst)))

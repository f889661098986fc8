open Engine
open Spp

type witness = { prefix : Activation.t list; cycle : Activation.t list }

type verdict = Oscillates of witness | Converges | Unknown of string

let verdict_name = function
  | Oscillates _ -> "oscillates"
  | Converges -> "converges"
  | Unknown _ -> "unknown"

let pp_verdict ppf = function
  | Oscillates w ->
    Fmt.pf ppf "oscillates (witness: %d-step prefix, %d-step fair cycle)"
      (List.length w.prefix) (List.length w.cycle)
  | Converges -> Fmt.string ppf "converges under every fair schedule"
  | Unknown reason -> Fmt.pf ppf "unknown (%s)" reason

let tracked_channels inst =
  List.filter_map
    (fun (src, dst) ->
      if dst = Instance.dest inst then None else Some (Channel.id ~src ~dst))
    (Instance.channels inst)

(* Path assignments differ between two states?  O(1) per node on ids. *)
let pi_differs inst a b =
  List.exists
    (fun v -> not (Spp.Arena.equal (State.pi_id a v) (State.pi_id b v)))
    (Instance.nodes inst)

let analyze_compact ?metrics inst (graph : Explore.compact) =
  let states = graph.Explore.states in
  let fair = Fair.make ~tracked:(tracked_channels inst) graph.Explore.csr in
  let goal =
    {
      Fair.differs = (fun a b -> pi_differs inst states.(a) states.(b));
      stuck_ok = (fun _ -> false);
    }
  in
  match Fair.find ?metrics fair goal with
  | Some (start, cycle) -> (
    match Fair.prefix fair start with
    | Some prefix -> Oscillates { prefix; cycle }
    | None -> Unknown "cycle start unreachable (internal error)")
  | None ->
    if graph.Explore.pruned then Unknown "channel bound pruned some writes"
    else if graph.Explore.truncated then Unknown "state limit reached"
    else Converges

let analyze_graph ?metrics inst graph = analyze_compact ?metrics inst (Explore.of_view graph)

(* State-accurate fairness of a repeating cycle: every tracked channel is
   read, and every channel on which a message is actually dropped also has a
   read that actually keeps a message.  (The static
   {!Engine.Fairness.cycle_is_fair} is conservative: it cannot tell that an
   All-read dropping only its second message still delivers its first.) *)
let cycle_fair_from inst state cycle =
  let module CS = Set.Make (struct
    type t = Channel.id

    let compare = Channel.compare_id
  end) in
  let _, reads, drops, cleans =
    List.fold_left
      (fun (st, reads, drops, cleans) entry ->
        let o = Step.apply inst st entry in
        let reads =
          List.fold_left
            (fun acc (r : Activation.read) -> CS.add r.Activation.chan acc)
            reads entry.Activation.reads
        in
        let dropped_of c =
          match List.assoc_opt c o.Step.dropped with Some n -> n | None -> 0
        in
        let drops =
          List.fold_left (fun acc (c, _) -> CS.add c acc) drops o.Step.dropped
        in
        let cleans =
          List.fold_left
            (fun acc (c, i) -> if i > dropped_of c then CS.add c acc else acc)
            cleans o.Step.processed
        in
        (o.Step.state, reads, drops, cleans))
      (state, CS.empty, CS.empty, CS.empty)
      cycle
  in
  List.for_all (fun c -> CS.mem c reads) (tracked_channels inst)
  && CS.subset drops cleans

let analyze ?config ?reduction ?domains ?metrics inst model =
  let graph = Explore.explore_compact ?config ?reduction ?domains ?metrics inst model in
  Metrics.timed ?m:metrics "analyze" (fun () -> analyze_compact ?metrics inst graph)

let analyze_hetero ?config ?reduction ?domains ?metrics inst hetero =
  (* The symmetry quotient requires one model everywhere: an automorphism
     of the instance need not map a node to one running the same model, so
     relabeled executions are not executions of the heterogeneous system. *)
  (match reduction with
  | Some Reduce.Sym ->
    invalid_arg "Oscillation.analyze_hetero: sym reduction requires a homogeneous model"
  | _ -> ());
  let models = List.map (Hetero.model_of hetero) (Instance.nodes inst) in
  let collapsible = List.for_all Explore.collapses models in
  let graph =
    Explore.explore_with ?config ?reduction ?domains ?metrics inst
      ~successors:(Enumerate.successors_with ?metrics inst (Hetero.model_of hetero))
      ~collapse:collapsible
  in
  Metrics.timed ?m:metrics "analyze" (fun () -> analyze_compact ?metrics inst graph)

let verify_witness_generic ?max_steps ~valid inst w =
  let max_steps =
    match max_steps with
    | Some n -> n
    | None -> max 5000 (List.length w.prefix + (4 * List.length w.cycle) + 10)
  in
  let after_prefix =
    List.fold_left
      (fun st e -> (Step.apply inst st e).Step.state)
      (State.initial inst) w.prefix
  in
  let sched = Engine.Scheduler.prefixed w.prefix w.cycle in
  let run = Engine.Executor.run ~max_steps inst sched in
  List.for_all valid (w.prefix @ w.cycle)
  && cycle_fair_from inst after_prefix w.cycle
  &&
  match run.Engine.Executor.stop with
  | Engine.Executor.Cycle _ -> true
  | Engine.Executor.Quiescent | Engine.Executor.Exhausted -> false

let verify_witness ?max_steps inst model w =
  verify_witness_generic ?max_steps ~valid:(Model.validates inst model) inst w

let verify_witness_hetero ?max_steps inst hetero w =
  verify_witness_generic ?max_steps ~valid:(Hetero.validates inst hetero) inst w

let sweep ?config ?reduction ?domains ?metrics inst models =
  List.map (fun m -> (m, analyze ?config ?reduction ?domains ?metrics inst m)) models

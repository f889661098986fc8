(* Protocol-generic explicit-state exploration and divergence analysis
   (PR 7).

   [Make (P)] is {!Explore} + {!Oscillation} for any {!Engine.Protocol.S}:
   the protocol's state space explored by the shared {!Explore.Driver}
   (one canonical activation entry per observational class, via
   {!Enumerate.memo}; channel-bound pruning and state-count truncation
   exactly as for SPP), and the {!Fair} divergence search over
   drop-stable strongly connected edge sets.  SPP's partial-order and
   symmetry reductions and its snapshot checkpoints are SPP-only hooks of
   the driver; [Driver.run ~pool] gives any protocol work stealing.

   Differences from the SPP pair, all driven by the protocol hooks:

   - Convergence is [P]'s predicate (via [E.State.converged]), not SPP
     quiescence; converged states are excluded from the cycle search (they
     are absorbing for every shipped protocol, and a fair cycle through a
     "done" state is not divergence).
   - Legacy oscillation demands a changing path assignment along the cycle;
     generically a fair cycle diverges when some node's [P.observable]
     changes along it, or — for protocols with [P.stuck_is_divergent] —
     when the cycle is "doomed": no converged state is reachable from it at
     all (a gossip rumor dropped on every copy).  The doomed clause is only
     sound on a complete graph, so it is disabled under pruning or
     truncation.
   - The exact last-message channel collapse additionally requires
     [P.idempotent] (push-sum messages carry mass; collapsing them would
     be unsound even under reliable polling).

   The [Protocols.Path_vector] instance of this functor is pinned by the
   parity suite to the legacy explorer's verdicts and state counts. *)

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
     partial-order or symmetry hook applies to a generic protocol. *)
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
      canon = None;
    }

  (* Sequential, so the numbering is deterministic (the parity suite pins
     the path-vector instance's to the SPP explorer's). *)
  let explore_with ?(config = default_config) inst ~model_of =
    Driver.run config (space inst ~model_of)

  let explore ?config inst model =
    explore_with ?config inst ~model_of:(fun _ -> model)

  (* ---------------------------------------------------------------- *)
  (* Divergence analysis: the {!Fair} kernel, with the observable-change /
     doomed-cycle criterion in place of {!Oscillation}'s "pi changes". *)

  type witness = {
    prefix : Engine.Activation.t list;
    cycle : Engine.Activation.t list;
  }

  type verdict = Converges | Diverges of witness | Unknown of string

  let verdict_name = function
    | Converges -> "converges"
    | Diverges _ -> "diverges"
    | Unknown _ -> "unknown"

  let pp_verdict ppf = function
    | Diverges w ->
      Fmt.pf ppf "diverges (witness: %d-step prefix, %d-step fair cycle)"
        (List.length w.prefix) (List.length w.cycle)
    | Converges -> Fmt.string ppf "converges under every fair schedule"
    | Unknown reason -> Fmt.pf ppf "unknown (%s)" reason

  let tracked_channels inst =
    List.sort_uniq Engine.Channel.compare_id
      (List.concat_map (P.in_channels inst) (P.nodes inst))

  let observable_differs inst a b =
    List.exists
      (fun v ->
        P.observable inst v (E.State.local a v)
        <> P.observable inst v (E.State.local b v))
      (P.nodes inst)

  module CS = Set.Make (struct
    type t = Engine.Channel.id

    let compare = Engine.Channel.compare_id
  end)

  let analyze_graph inst graph =
    let converged = Array.map (E.State.converged inst) graph.states in
    let fair = Fair.make ~tracked:(tracked_channels inst) graph.csr in
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
    match Fair.find ~live:(fun i -> not converged.(i)) fair goal with
    | Some (start, cycle) -> (
      match Fair.prefix fair start with
      | Some prefix -> Diverges { prefix; cycle }
      | None -> Unknown "cycle start unreachable (internal error)")
    | None ->
      if graph.pruned then Unknown "channel bound pruned some writes"
      else if graph.truncated then Unknown "state limit reached"
      else Converges

  let analyze ?config inst model =
    analyze_graph inst (explore ?config inst model)

  (* ---------------------------------------------------------------- *)
  (* Witness verification by replay, independent of the search above. *)

  let cycle_fair_from inst state cycle =
    let _, reads, drops, cleans =
      List.fold_left
        (fun (st, reads, drops, cleans) entry ->
          let o = E.Step.apply inst st entry in
          let reads =
            List.fold_left
              (fun acc (r : Engine.Activation.read) ->
                CS.add r.Engine.Activation.chan acc)
              reads entry.Engine.Activation.reads
          in
          let dropped_of c =
            match List.assoc_opt c o.E.Step.dropped with
            | Some msgs -> List.length msgs
            | None -> 0
          in
          let drops =
            List.fold_left (fun acc (c, _) -> CS.add c acc) drops o.E.Step.dropped
          in
          let cleans =
            List.fold_left
              (fun acc (c, msgs) ->
                if List.length msgs > dropped_of c then CS.add c acc else acc)
              cleans o.E.Step.processed
          in
          (o.E.Step.state, reads, drops, cleans))
        (state, CS.empty, CS.empty, CS.empty)
        cycle
    in
    List.for_all (fun c -> CS.mem c reads) (tracked_channels inst)
    && CS.subset drops cleans

  let verify_witness ?max_steps inst model w =
    let max_steps =
      match max_steps with
      | Some n -> n
      | None -> max 5000 (List.length w.prefix + (4 * List.length w.cycle) + 10)
    in
    let after_prefix =
      List.fold_left
        (fun st e -> (E.Step.apply inst st e).E.Step.state)
        (E.State.initial inst) w.prefix
    in
    let sched = Engine.Scheduler.prefixed w.prefix w.cycle in
    let run = E.Executor.run ~max_steps inst sched in
    List.for_all (E.validates inst model) (w.prefix @ w.cycle)
    && cycle_fair_from inst after_prefix w.cycle
    &&
    match run.E.Executor.stop with
    | E.Executor.Cycle _ -> true
    | E.Executor.Converged | E.Executor.Exhausted -> false
end

(* Benchmark & reproduction harness.

   Regenerates every table and figure of the paper (see DESIGN.md's
   per-experiment index and EXPERIMENTS.md for paper-vs-measured):

   - FIG1-2: the transitivity rules, shown as the closure's derivation gain;
   - FIG3/FIG4: the realization matrices, derived from the foundational
     facts and diffed against the transcribed paper tables;
   - EX-A1 (Fig. 5): DISAGREE's per-model oscillation/convergence verdicts;
   - EX-A2 (Fig. 6): the 13-step REO trace, the REO/REF oscillation, and
     exhaustive convergence of the polling models (R1A and RMA take
     about 0.1 s and 0.3 s on a 2-vCPU host);
   - EX-A3/A4/A5 (Figs. 7-9): the traces and the machine-checked
     impossibility results (Props. 3.10-3.13);
   - EX-A6: the multi-node-activation oscillation;
   - BGP: convergence cost across BGP deployment presets and topology sizes
     (extension experiment motivated by Secs. 2.3 and 4). *)

open Spp
open Engine
open Realization

(* Harness model names are literals; a typo exits 2 with the valid names
   rather than raising a bare [Invalid_argument] out of [Option.get]. *)
let model s =
  match Model.of_string s with
  | Some m -> m
  | None ->
    Printf.eprintf "bench: unknown model name %S (expected one of %s)\n" s
      (String.concat ", " (List.map Model.to_string Model.all));
    exit 2
let section title = Format.printf "@.=============== %s ===============@." title

(* ------------------------------------------------------------------ *)

let fig_1_2 () =
  section "FIG 1-2: transitivity rules (Sec. 3.4)";
  let base_positives = List.length Facts.positives in
  let base_negatives = List.length Facts.negatives in
  let closure = Closure.derive_exn () in
  let proven, disproven =
    List.fold_left
      (fun (p, d) (a, b, (c : Closure.cell)) ->
        if Model.equal a b then (p, d)
        else
          ((if c.Closure.proven > 0 then p + 1 else p),
           if c.Closure.disproven < 5 then d + 1 else d))
      (0, 0) (Closure.cells closure)
  in
  Format.printf
    "foundational facts: %d positive, %d negative@.after closure: %d/552 pairs with a \
     proven realization level, %d/552 with a disproven level@."
    base_positives base_negatives proven disproven;
  closure

let derivations closure =
  section "DERIVATIONS: the four cells sharpened beyond the published tables";
  List.iter
    (fun (a, b) ->
      print_string
        (Closure.explain closure ~realized:(model a) ~realizer:(model b));
      print_newline ())
    [ ("U1O", "R1O"); ("U1O", "RMO"); ("UMO", "R1O"); ("UMO", "RMO") ]

let figs_3_4 closure =
  section "FIG 3: realization matrix, reliable realizers";
  print_string (Closure.render closure ~realizers:Model.reliable);
  section "FIG 4: realization matrix, unreliable realizers";
  print_string (Closure.render closure ~realizers:Model.unreliable);
  section "FIG 3-4 vs. the paper";
  print_string (Paper_tables.summary closure);
  let written = Export.write_all closure ~dir:"results" in
  Format.printf "markdown artifacts: %s@." (String.concat ", " written)

(* ------------------------------------------------------------------ *)

let verdict_line inst m =
  let t0 = Unix.gettimeofday () in
  let v = Modelcheck.Oscillation.analyze inst m in
  let extra =
    match v with
    | Modelcheck.Oscillation.Oscillates w ->
      if Modelcheck.Oscillation.verify_witness inst m w then " [witness replays]"
      else " [WITNESS FAILED]"
    | _ -> ""
  in
  Format.printf "  %-4s %a%s (%.2fs)@." (Model.to_string m)
    Modelcheck.Oscillation.pp_verdict v extra
    (Unix.gettimeofday () -. t0);
  Format.print_flush ()

let ex_a1 () =
  section "EX A.1 (Fig. 5): DISAGREE";
  let inst = Gadgets.disagree in
  Format.printf "%a@." Instance.pp inst;
  Format.printf "stable solutions: %d; dispute wheel: %b@."
    (Solver.count_solutions inst) (Dispute.has_wheel inst);
  Format.printf "per-model verdicts (exhaustive, channel bound 4):@.";
  List.iter (verdict_line inst) Model.all

let poll1 inst c =
  let v = Gadgets.node inst c in
  Activation.single v
    (List.map
       (fun ch -> Activation.read ~count:(Activation.Finite 1) ch)
       ((View.spp inst).required v))

let ex_a2 () =
  section "EX A.2 (Fig. 6): REO/REF vs the polling models";
  let inst = Gadgets.fig6 in
  Format.printf "%a@." Instance.pp inst;
  let entries =
    List.map (poll1 inst) [ 'd'; 'x'; 'a'; 'u'; 'v'; 'y'; 'a'; 'u'; 'v'; 'z'; 'a'; 'v'; 'u' ]
  in
  let tr = Executor.run_entries ~validate:(model "REO") inst entries in
  Format.printf "the paper's 13-step REO prefix:@.%s@." (Trace.paper_table tr);
  let cycle = List.map (poll1 inst) [ 'v'; 'u'; 'a'; 'x'; 'y'; 'z'; 'd' ] in
  List.iter
    (fun mname ->
      let r =
        Executor.run ~validate:(model mname) ~max_steps:500 inst
          (Scheduler.prefixed entries cycle)
      in
      Format.printf "continuing with the fair cycle under %s: %a@." mname Executor.pp_stop
        r.Executor.stop)
    [ "REO"; "REF" ];
  Format.printf "polling models (exhaustive):@.";
  List.iter (fun m -> verdict_line inst (model m)) [ "REA"; "R1A"; "RMA" ]

let refute_line name inst m level ~termination ~target =
  let t0 = Unix.gettimeofday () in
  let r = Modelcheck.Refute.realizable ~termination inst m level ~target in
  Format.printf "  %-28s %a (%.2fs)@." name Modelcheck.Refute.pp_result r
    (Unix.gettimeofday () -. t0);
  Format.print_flush ()

let ex_a3 () =
  section "EX A.3 (Fig. 7): Prop. 3.10 - REO not exactly realizable in R1O";
  let inst = Gadgets.fig7 in
  let entries =
    List.map (poll1 inst) [ 'd'; 'b'; 'u'; 'v'; 'a'; 'u'; 'v'; 's'; 's'; 's' ]
  in
  let tr = Executor.run_entries ~validate:(model "REO") inst entries in
  Format.printf "REO execution:@.%s@." (Trace.paper_table tr);
  let target = Trace.assignments ~include_initial:true tr in
  refute_line "exact in R1O (w/ fairness)" inst (model "R1O") Relation.Exact
    ~termination:Modelcheck.Refute.Forever ~target;
  refute_line "subsequence in R1O" inst (model "R1O") Relation.Subsequence
    ~termination:Modelcheck.Refute.Prefix ~target;
  refute_line "exact in RMS" inst (model "RMS") Relation.Exact
    ~termination:Modelcheck.Refute.Prefix ~target

let ex_a4 () =
  section "EX A.4 (Fig. 8): Prop. 3.11 - REA not realizable with repetition in R1O";
  let inst = Gadgets.fig8 in
  let entries =
    List.map (fun c -> Activation.poll_all (View.spp inst) (Gadgets.node inst c))
      [ 'd'; 'a'; 'u'; 'b'; 'u'; 's' ]
  in
  let tr = Executor.run_entries ~validate:(model "REA") inst entries in
  Format.printf "REA execution:@.%s@." (Trace.paper_table tr);
  let target = Trace.assignments ~include_initial:true tr in
  refute_line "with repetition in R1O" inst (model "R1O") Relation.Repetition
    ~termination:Modelcheck.Refute.Prefix ~target;
  (match
     Modelcheck.Refute.realizable inst (model "R1O") Relation.Subsequence ~target
   with
  | Modelcheck.Refute.Realizable schedule ->
    let tr' = Executor.run_entries ~validate:(model "R1O") inst schedule in
    Format.printf "  subsequence realization found (the paper's 'insert suad'):@.%s@."
      (Trace.paper_table tr')
  | r -> Format.printf "  subsequence in R1O: %a@." Modelcheck.Refute.pp_result r)

let ex_a5 () =
  section "EX A.5 (Fig. 9): Props. 3.12/3.13 - REA not exactly realizable in R1S";
  let inst = Gadgets.fig9 in
  let entries =
    List.map (fun c -> Activation.poll_all (View.spp inst) (Gadgets.node inst c))
      [ 'd'; 'b'; 'c'; 'x'; 's'; 'a'; 'c'; 's' ]
  in
  let tr = Executor.run_entries ~validate:(model "REA") inst entries in
  Format.printf "REA execution:@.%s@." (Trace.paper_table tr);
  let target = Trace.assignments ~include_initial:true tr in
  refute_line "exact in R1S" inst (model "R1S") Relation.Exact
    ~termination:Modelcheck.Refute.Prefix ~target;
  refute_line "with repetition in R1S" inst (model "R1S") Relation.Repetition
    ~termination:Modelcheck.Refute.Prefix ~target

let ex_a6 () =
  section "EX A.6: multi-node activations (R1A with |U| > 1)";
  let inst = Gadgets.disagree in
  let x = Gadgets.node inst 'x' and y = Gadgets.node inst 'y' in
  let read_all a b =
    Activation.read ~count:Activation.All
      (Channel.id ~src:(Gadgets.node inst a) ~dst:(Gadgets.node inst b))
  in
  let both_from_d =
    Activation.entry ~active:[ x; y ] ~reads:[ read_all 'd' 'x'; read_all 'd' 'y' ]
  in
  let both_cross =
    Activation.entry ~active:[ x; y ] ~reads:[ read_all 'y' 'x'; read_all 'x' 'y' ]
  in
  let d_entry = Activation.single (Gadgets.node inst 'd') [ read_all 'x' 'd' ] in
  let entries = [ d_entry; both_from_d; both_cross; both_from_d; both_cross ] in
  assert (List.for_all (Model.validates_multi (View.spp inst) (model "R1A")) entries);
  let tr = Executor.run_entries inst entries in
  Format.printf "simultaneous-activation schedule:@.%s@." (Trace.paper_table tr);
  let r =
    Executor.run ~max_steps:100 inst
      (Scheduler.prefixed [ d_entry ] [ both_from_d; both_cross ])
  in
  Format.printf "continuing forever: %a (polling with |U|>1 CAN oscillate)@."
    Executor.pp_stop r.Executor.stop

(* ------------------------------------------------------------------ *)

let bgp_experiment () =
  section "BGP: deployment presets on Gao-Rexford hierarchies";
  Format.printf "%-42s %-6s %-10s %-8s %-9s@." "configuration" "model" "converged" "steps"
    "messages";
  List.iter
    (fun seed ->
      let topo = Bgp.Topology.generate { Bgp.Topology.default_config with seed } in
      let dest = Bgp.Topology.size topo - 1 in
      Format.printf "-- topology seed %d (%d ASes, dispute wheel: %b)@." seed
        (Bgp.Topology.size topo)
        (Dispute.has_wheel (Bgp.Policy.compile topo ~dest));
      List.iter
        (fun (name, cfg) ->
          let m = Bgp.Config_map.model_of cfg in
          let r = Bgp.Simulate.run topo ~dest ~model:m ~scheduler:Scheduler.round_robin in
          Format.printf "%-42s %-6s %-10b %-8d %-9d@." name (Model.to_string m)
            r.Bgp.Simulate.converged r.Bgp.Simulate.steps r.Bgp.Simulate.messages)
        Bgp.Config_map.presets)
    [ 1; 2 ];
  section "BGP: convergence cost vs topology size (extension figure)";
  Format.printf "%-8s %-8s %-22s %-22s %-22s@." "ASes" "paths" "R1O steps/msgs"
    "RMS steps/msgs" "REA steps/msgs";
  List.iter
    (fun (t2, stubs) ->
      let topo =
        Bgp.Topology.generate { Bgp.Topology.tier1 = 2; tier2 = t2; stubs; seed = 5 }
      in
      let dest = Bgp.Topology.size topo - 1 in
      let inst = Bgp.Policy.compile topo ~dest in
      let cell mname =
        let r =
          Bgp.Simulate.run topo ~dest ~model:(model mname) ~scheduler:Scheduler.round_robin
        in
        Printf.sprintf "%d/%d%s" r.Bgp.Simulate.steps r.Bgp.Simulate.messages
          (if r.Bgp.Simulate.converged then "" else " (!)")
      in
      Format.printf "%-8d %-8d %-22s %-22s %-22s@." (Bgp.Topology.size topo)
        (List.length (Instance.all_permitted inst))
        (cell "R1O") (cell "RMS") (cell "REA");
      Format.print_flush ())
    [ (2, 3); (3, 6); (4, 10); (5, 14); (6, 18) ]

(* ------------------------------------------------------------------ *)

let mixed_models () =
  section "SEC 5 EXTENSION: mixed per-node models on DISAGREE";
  let inst = Gadgets.disagree in
  let x = Gadgets.node inst 'x' and y = Gadgets.node inst 'y' in
  Format.printf "(d always polls; exhaustive verdicts)@.";
  Format.printf "  %-6s %-6s verdict@." "x" "y";
  List.iter
    (fun (mx, my) ->
      let hetero =
        Hetero.of_list ~default:(model "REA") [ (x, model mx); (y, model my) ]
      in
      let v = Modelcheck.Oscillation.analyze_hetero inst hetero in
      Format.printf "  %-6s %-6s %a@." mx my Modelcheck.Oscillation.pp_verdict v)
    [
      ("REA", "REA"); ("RMA", "REA"); ("REA", "R1O"); ("R1O", "REA");
      ("RMS", "REA"); ("RMA", "R1O"); ("R1O", "R1O");
    ];
  Format.printf "=> the polling guarantee needs EVERY contested node to poll.@.";
  section "SEC 5 EXTENSION: multi-node activation (synchronous rounds)";
  List.iter
    (fun (name, inst) ->
      let r = Executor.run ~max_steps:200 inst (Multi.synchronous_polling inst) in
      Format.printf "  %-13s synchronous polling: %a@." name Executor.pp_stop
        r.Executor.stop)
    [ ("DISAGREE", Gadgets.disagree); ("GOOD-GADGET", Gadgets.good_gadget);
      ("FIG6", Gadgets.fig6) ]

let ablation () =
  section "ABLATION: convergence cost across the 24 models";
  Format.printf
    "random fair schedules (5 seeds) on GOOD-GADGET and a 12-AS Gao-Rexford instance@.";
  let bgp_topo = Bgp.Topology.generate { Bgp.Topology.default_config with tier2 = 4; stubs = 6; seed = 3 } in
  let bgp_inst = Bgp.Policy.compile bgp_topo ~dest:(Bgp.Topology.size bgp_topo - 1) in
  let seeds = [ 1; 2; 3; 4; 5 ] in
  Format.printf "  %-5s %-34s %-34s@." "model" "GOOD-GADGET (steps/msgs mean)"
    "BGP-12 (steps/msgs mean)";
  List.iter
    (fun m ->
      let cell inst =
        let s =
          Stats.across_seeds ~max_steps:20_000 inst
            ~scheduler:(fun ~seed -> Scheduler.random inst m ~seed)
            ~seeds
        in
        Printf.sprintf "%.0f/%.0f%s%s" s.Stats.mean_steps s.Stats.mean_messages
          (if s.Stats.all_converged then "" else " (!)")
          (if s.Stats.stale_runs > 0 then Printf.sprintf " [%d stale]" s.Stats.stale_runs
           else "")
      in
      Format.printf "  %-5s %-34s %-34s@." (Model.to_string m) (cell Gadgets.good_gadget)
        (cell bgp_inst);
      Format.print_flush ())
    Model.all

let failure_experiment () =
  section "BGP: link failure and warm re-convergence (extension)";
  Format.printf
    "after convergence, one transit link is severed; warm = continue from the\n\
     converged state, cold = re-run the failed topology from scratch@.";
  Format.printf "  %-6s %-6s %-22s %-22s %-10s %-6s@." "seed" "model" "warm steps/msgs"
    "cold steps/msgs" "rerouted" "lost";
  List.iter
    (fun seed ->
      let topo = Bgp.Topology.generate { Bgp.Topology.default_config with seed } in
      let dest = Bgp.Topology.size topo - 1 in
      List.iter
        (fun mname ->
          let m = model mname in
          let inst = Bgp.Policy.compile topo ~dest in
          let r0 = Executor.run ~validate:m inst (Scheduler.round_robin inst m) in
          let final = Trace.final r0.Executor.trace in
          let before = State.assignment inst final in
          let link =
            (* sever a link actually carried by someone's route *)
            let v =
              List.find
                (fun v ->
                  v <> dest
                  && Spp.Path.length (Spp.Assignment.get before v) >= 2)
                (Instance.nodes inst)
            in
            (v, Option.get (Spp.Path.next_hop (Spp.Assignment.get before v)))
          in
          let topo', event = Bgp.Failure.sever topo ~dest ~state:final ~link in
          let warm = Bgp.Failure.reconverge event ~before ~model:m in
          let cold = Bgp.Simulate.run topo' ~dest ~model:m ~scheduler:Scheduler.round_robin in
          Format.printf "  %-6d %-6s %-22s %-22s %-10d %-6d@." seed mname
            (Printf.sprintf "%d/%d%s" warm.Bgp.Failure.steps warm.Bgp.Failure.messages
               (if warm.Bgp.Failure.converged then "" else " (!)"))
            (Printf.sprintf "%d/%d%s" cold.Bgp.Simulate.steps cold.Bgp.Simulate.messages
               (if cold.Bgp.Simulate.converged then "" else " (!)"))
            warm.Bgp.Failure.rerouted warm.Bgp.Failure.lost)
        [ "R1O"; "RMS"; "REA" ])
    [ 4; 5 ]

let mrai_experiment () =
  section "SEC 4 EXTENSION: MRAI-style batching (timed simulator)";
  Format.printf
    "batch-mode runs with uniform per-node timers and heterogeneous link delays (1-6 ticks)@.";
  List.iter
    (fun (name, inst) ->
      Format.printf "-- %s@." name;
      Format.printf "   %-6s %-12s %-12s %-10s %-12s@." "MRAI" "finish-time"
        "last-change" "messages" "activations";
      List.iter
        (fun (interval, (r : _ Timed.result)) ->
          Format.printf "   %-6d %-12d %-12d %-10d %-12d%s@." interval r.Timed.finish_time
            r.Timed.last_change r.Timed.messages r.Timed.activations
            (if r.Timed.converged then "" else "  (did not converge)"))
        (Timed.mrai_sweep ~link_delay:(Timed.spread_delays inst) (Timed.spp inst));
      let ev =
        Timed.run
          ~config:
            {
              Timed.default with
              Timed.mode = Timed.Event_driven;
              Timed.link_delay = Timed.spread_delays inst;
            }
          inst
      in
      Format.printf "   %-6s %-12d %-12d %-10d %-12d%s@." "event" ev.Timed.finish_time
        ev.Timed.last_change ev.Timed.messages ev.Timed.activations
        (if ev.Timed.converged then "" else "  (did not converge)"))
    [
      ( "BGP hierarchy (12 ASes)",
        let topo =
          Bgp.Topology.generate
            { Bgp.Topology.default_config with tier2 = 4; stubs = 6; seed = 9 }
        in
        Bgp.Policy.compile topo ~dest:(Bgp.Topology.size topo - 1) );
      ("GOOD-GADGET", Gadgets.good_gadget);
      ("SHORTEST-PATHS (6 nodes)", Gadgets.shortest_paths ~n:5);
    ]

let state_space_sizes () =
  section "STATE SPACES: bounded reachable states per model (channel bound 4)";
  Format.printf "  %-5s %-12s %-12s@." "model" "DISAGREE" "GOOD-GADGET";
  List.iter
    (fun m ->
      let size inst =
        Array.length (Modelcheck.Explore.explore_compact inst m).Modelcheck.Explore.states
      in
      Format.printf "  %-5s %-12d %-12d@." (Model.to_string m) (size Gadgets.disagree)
        (size Gadgets.good_gadget);
      Format.print_flush ())
    Model.all

let fact_audit () =
  section "FACT AUDIT: machine evidence for every foundational fact";
  let pos = Modelcheck.Audit.positives () in
  Format.printf "positive facts (constructive transforms):@.%s" (Modelcheck.Audit.summary pos);
  let neg = Modelcheck.Audit.negatives () in
  Format.printf "negative facts (witnesses, exhaustive verdicts, refutations):@.%s"
    (Modelcheck.Audit.summary neg)

let reachable_solutions () =
  section "REACHABLE SOLUTIONS: where executions can end";
  Format.printf
    "stale = quiescent dead ends of executions whose final drops violate fairness@.";
  Format.printf "  %-13s %-10s %-6s %-10s %-6s@." "instance" "solutions" "model"
    "reachable" "stale";
  List.iter
    (fun (name, inst, unreliable) ->
      let total = Solver.count_solutions inst in
      List.iter
        (fun mname ->
          let n = Modelcheck.Quiescence.solution_count inst (model mname) in
          let stale =
            List.length (Modelcheck.Quiescence.stale_quiescent_assignments inst (model mname))
          in
          Format.printf "  %-13s %-10d %-6s %-10d %-6d@." name total mname n stale;
          Format.print_flush ())
        ([ "R1O"; "REO"; "REA" ] @ unreliable))
    [
      ("DISAGREE", Gadgets.disagree, [ "U1O"; "UMS" ]);
      ("GOOD-GADGET", Gadgets.good_gadget, [ "U1O"; "UMS" ]);
      (* the unreliable queueing space of BAD-GADGET is huge; UEA shows the
         same stale-dead-end phenomenon cheaply *)
      ("BAD-GADGET", Gadgets.bad_gadget, [ "UEA" ]);
    ]

let () =
  let t0 = Unix.gettimeofday () in
  let closure = fig_1_2 () in
  figs_3_4 closure;
  derivations closure;
  ex_a1 ();
  ex_a2 ();
  ex_a3 ();
  ex_a4 ();
  ex_a5 ();
  ex_a6 ();
  bgp_experiment ();
  failure_experiment ();
  mixed_models ();
  ablation ();
  mrai_experiment ();
  state_space_sizes ();
  reachable_solutions ();
  fact_audit ();
  Format.printf "@.total harness time: %.1fs@." (Unix.gettimeofday () -. t0)

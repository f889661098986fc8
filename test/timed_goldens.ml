(* Golden timed runs (Sec. 4's MRAI discussion): per run the convergence
   flag, finish time, time of the last route change, messages,
   activations and the final assignment.  The inputs are the three
   instances of bench/main.exe's MRAI table (batch MRAI 1-16 with
   heterogeneous link delays, plus one event-driven run) and DISAGREE and
   BAD-GADGET at horizon 2,000 in both modes.  The committed .expected file
   locks these numbers; promote a change deliberately (dune promote). *)

open Engine

let show inst label (r : State.t Timed.result) =
  Fmt.pr "  %-12s converged=%b finish=%d last_change=%d messages=%d activations=%d@."
    label r.Timed.converged r.Timed.finish_time r.Timed.last_change r.Timed.messages
    r.Timed.activations;
  Fmt.pr "    %a@." (Spp.Assignment.pp inst) (State.assignment inst r.Timed.final)

let () =
  List.iter
    (fun (name, inst) ->
      Fmt.pr "== %s ==@." name;
      let link_delay = Timed.spread_delays inst in
      List.iter
        (fun (i, r) -> show inst (Printf.sprintf "mrai=%d" i) r)
        (Timed.mrai_sweep ~link_delay (Timed.spp inst));
      show inst "event"
        (Timed.run
           ~config:{ Timed.default with Timed.mode = Timed.Event_driven; link_delay }
           inst))
    [
      ( "BGP hierarchy (12 ASes)",
        let topo =
          Bgp.Topology.generate
            { Bgp.Topology.default_config with tier2 = 4; stubs = 6; seed = 9 }
        in
        Bgp.Policy.compile topo ~dest:(Bgp.Topology.size topo - 1) );
      ("GOOD-GADGET", Spp.Gadgets.good_gadget);
      ("SHORTEST-PATHS (6 nodes)", Spp.Gadgets.shortest_paths ~n:5);
    ];
  List.iter
    (fun (name, inst) ->
      Fmt.pr "== %s, horizon 2000 ==@." name;
      List.iter
        (fun (label, mode) ->
          show inst label
            (Timed.run ~config:{ Timed.default with Timed.mode; horizon = 2_000 } inst))
        [ ("batch", Timed.Batch); ("event", Timed.Event_driven) ])
    [ ("DISAGREE", Spp.Gadgets.disagree); ("BAD-GADGET", Spp.Gadgets.bad_gadget) ]

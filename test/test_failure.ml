(* Tests for link failure / re-convergence (Bgp.Failure) and the analysis
   report (Modelcheck.Report). *)

open Spp
open Engine
open Bgp

let model s = Option.get (Model.of_string s)

(* The small topology of test_bgp.ml: S is dual-homed to M1 and M2. *)
let small () =
  Topology.make
    ~names:[| "T1"; "T2"; "M1"; "M2"; "S" |]
    ~links:
      [
        (0, 1, Topology.Peer_peer);
        (0, 2, Topology.Provider_customer);
        (1, 3, Topology.Provider_customer);
        (2, 3, Topology.Peer_peer);
        (2, 4, Topology.Provider_customer);
        (3, 4, Topology.Provider_customer);
      ]

let converge topo ~dest ~model:m =
  let inst = Policy.compile topo ~dest in
  let r = Executor.run ~validate:m inst (Scheduler.round_robin inst m) in
  match r.Executor.stop with
  | Executor.Converged -> (inst, Trace.final r.Executor.trace)
  | s -> Alcotest.failf "did not converge: %a" Executor.pp_stop s

let test_sever_and_reconverge () =
  let topo = small () in
  let m = model "RMS" in
  let inst, final = converge topo ~dest:4 ~model:m in
  let before = State.assignment inst final in
  (* Kill the M1-S session; S stays reachable through M2. *)
  let _topo', event = Failure.sever topo ~dest:4 ~state:final ~link:(2, 4) in
  let r = Failure.reconverge event ~before ~model:m in
  Alcotest.(check bool) "re-converged" true r.Failure.converged;
  Alcotest.(check bool) "new assignment is a solution" true
    (Assignment.is_solution event.Failure.instance r.Failure.assignment);
  Alcotest.(check int) "nobody lost the destination" 0 r.Failure.lost;
  (* At least M1 itself must have rerouted. *)
  Alcotest.(check bool) "someone rerouted" true (r.Failure.rerouted > 0)

let test_sever_disconnecting () =
  let topo = small () in
  let m = model "REA" in
  let inst, final = converge topo ~dest:4 ~model:m in
  let before = State.assignment inst final in
  (* Kill both of S's uplinks: everyone must withdraw. *)
  let _t1, event1 = Failure.sever topo ~dest:4 ~state:final ~link:(2, 4) in
  let inst1 = event1.Failure.instance in
  let r1 = Failure.reconverge event1 ~before ~model:m in
  Alcotest.(check bool) "intermediate re-converged" true r1.Failure.converged;
  ignore inst1;
  (* Continue: remove the remaining uplink from the new topology. *)
  let topo1 =
    Topology.make ~names:(Topology.names topo)
      ~links:
        (List.filter
           (fun (x, y, _) -> not ((x = 2 && y = 4) || (x = 4 && y = 2)))
           (Topology.edges topo))
  in
  let inst1', final1 = converge topo1 ~dest:4 ~model:m in
  let before1 = State.assignment inst1' final1 in
  let _t2, event2 = Failure.sever topo1 ~dest:4 ~state:final1 ~link:(3, 4) in
  let r2 = Failure.reconverge event2 ~before:before1 ~model:m in
  Alcotest.(check bool) "re-converged after disconnection" true r2.Failure.converged;
  Alcotest.(check int) "all four other ASes lost the route" 4 r2.Failure.lost

let test_sever_unknown_link () =
  let topo = small () in
  let inst = Policy.compile topo ~dest:4 in
  let st = State.initial inst in
  try
    ignore (Failure.sever topo ~dest:4 ~state:st ~link:(0, 4));
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_reconvergence_cheaper_than_cold_start () =
  (* Re-converging after a single link failure should need no more
     messages than converging the failed topology from scratch. *)
  let topo = Topology.generate { Topology.default_config with seed = 31 } in
  let dest = Topology.size topo - 1 in
  let m = model "RMS" in
  let inst, final = converge topo ~dest ~model:m in
  let before = State.assignment inst final in
  (* pick a link not incident to the destination *)
  let link =
    let a, b, _ =
      List.find (fun (a, b, _) -> a <> dest && b <> dest) (Topology.edges topo)
    in
    (a, b)
  in
  let topo', event = Failure.sever topo ~dest ~state:final ~link in
  let warm = Failure.reconverge event ~before ~model:m in
  Alcotest.(check bool) "re-converged" true warm.Failure.converged;
  let cold =
    Bgp.Simulate.run topo' ~dest ~model:m ~scheduler:Scheduler.round_robin
  in
  Alcotest.(check bool) "cold converged" true cold.Bgp.Simulate.converged;
  Alcotest.(check bool) "warm start sends fewer messages" true
    (warm.Failure.messages <= cold.Bgp.Simulate.messages)


(* ------------------------------------------------------------------ *)
(* Surgery *)

let test_surgery_identity () =
  (* Transplanting onto the same instance is the identity. *)
  let inst = Gadgets.fig6 in
  let m = model "RMS" in
  let entries = Scheduler.prefix 20 (Scheduler.random inst m ~seed:4) in
  let st = Trace.final (Executor.run_entries inst entries) in
  Alcotest.(check bool) "identity" true
    (State.equal st (Surgery.transplant ~old_instance:inst ~new_instance:inst st))

let test_surgery_drops_dead_channels () =
  let inst = Gadgets.disagree in
  let m = model "RMS" in
  let r = Executor.run ~validate:m ~max_steps:3 inst (Scheduler.round_robin inst m) in
  let st = Trace.final r.Executor.trace in
  (* New instance without the x-y edge. *)
  let inst' =
    Instance.make ~names:(Instance.names inst) ~dest:0
      ~edges:[ (0, 1); (0, 2) ]
      ~permitted:[ (1, [ [ 1; 0 ] ]); (2, [ [ 2; 0 ] ]) ]
  in
  let st' = Surgery.transplant ~old_instance:inst ~new_instance:inst' st in
  let x = Gadgets.node inst 'x' and y = Gadgets.node inst 'y' in
  Alcotest.(check bool) "x-y knowledge gone" true
    (Path.is_epsilon (State.rho st' (Channel.id ~src:y ~dst:x)));
  Alcotest.(check int) "x-y queues gone" 0
    (Channel.length (State.channels st') (Channel.id ~src:x ~dst:y));
  (* pi and announcements survive *)
  Alcotest.(check bool) "pi kept" true (Path.equal (State.pi st' x) (State.pi st x));
  Alcotest.(check bool) "announced kept" true
    (Path.equal (State.announced st' y) (State.announced st y))

let test_surgery_size_mismatch () =
  let a = Gadgets.disagree and b = Gadgets.fig6 in
  try
    ignore (Surgery.transplant ~old_instance:a ~new_instance:b (State.initial a));
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Report *)

let test_report_disagree () =
  let report = Modelcheck.Report.analyze Gadgets.disagree in
  Alcotest.(check int) "solutions" 2 report.Modelcheck.Report.solutions;
  Alcotest.(check bool) "wheel found" true
    (report.Modelcheck.Report.dispute_wheel <> None);
  Alcotest.(check bool) "constructive fails" true
    (report.Modelcheck.Report.constructive = None);
  Alcotest.(check int) "three verdicts" 3
    (List.length report.Modelcheck.Report.verdicts);
  let text = Modelcheck.Report.to_string Gadgets.disagree report in
  Alcotest.(check bool) "mentions oscillation" true
    (let n = "oscillates" in
     let h = String.length text and k = String.length n in
     let rec loop i = i + k <= h && (String.sub text i k = n || loop (i + 1)) in
     loop 0)

let test_report_good_gadget () =
  let report = Modelcheck.Report.analyze Gadgets.good_gadget in
  Alcotest.(check int) "one solution" 1 report.Modelcheck.Report.solutions;
  Alcotest.(check bool) "no wheel" true (report.Modelcheck.Report.dispute_wheel = None);
  Alcotest.(check bool) "constructive succeeds" true
    (report.Modelcheck.Report.constructive <> None);
  List.iter
    (fun (v : Modelcheck.Report.verdict_summary) ->
      Alcotest.(check (option int)) "unique reachable solution" (Some 1)
        v.Modelcheck.Report.reachable_solutions)
    report.Modelcheck.Report.verdicts

let () =
  Alcotest.run "failure"
    [
      ( "link-failure",
        [
          Alcotest.test_case "sever and re-converge" `Quick test_sever_and_reconverge;
          Alcotest.test_case "disconnection withdraws routes" `Quick
            test_sever_disconnecting;
          Alcotest.test_case "unknown link rejected" `Quick test_sever_unknown_link;
          Alcotest.test_case "warm start beats cold start" `Quick
            test_reconvergence_cheaper_than_cold_start;
        ] );
      ( "surgery",
        [
          Alcotest.test_case "identity transplant" `Quick test_surgery_identity;
          Alcotest.test_case "dead channels dropped" `Quick test_surgery_drops_dead_channels;
          Alcotest.test_case "size mismatch rejected" `Quick test_surgery_size_mismatch;
        ] );
      ( "report",
        [
          Alcotest.test_case "DISAGREE report" `Quick test_report_disagree;
          Alcotest.test_case "GOOD GADGET report" `Quick test_report_good_gadget;
        ] );
    ]

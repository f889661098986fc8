(* Tests for the tooling layers added on top of the core reproduction: the
   instance description language (Spp.Dsl), the constructive GSW solver,
   and the timed (MRAI) simulator. *)

open Spp
open Engine

(* ------------------------------------------------------------------ *)
(* Dsl *)

let disagree_text = {|
# The DISAGREE gadget (Fig. 5)
dest d
edges d-x d-y x-y
node x: xyd > xd
node y: yxd > yd
|}

let test_dsl_parse_disagree () =
  match Dsl.parse disagree_text with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok inst ->
    Alcotest.(check int) "size" 3 (Instance.size inst);
    Alcotest.(check int) "two solutions" 2 (Solver.count_solutions inst);
    Alcotest.(check bool) "wheel" true (Dispute.has_wheel inst);
    let x = Instance.find_node inst "x" in
    Alcotest.(check int) "x prefs" 2 (List.length (Instance.permitted inst x))

let test_dsl_multichar_names () =
  let text = {|
dest sink
edges sink-alpha sink-beta alpha-beta
node alpha: alpha-beta-sink > alpha-sink
node beta: beta-sink
|} in
  match Dsl.parse text with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok inst ->
    Alcotest.(check int) "size" 3 (Instance.size inst);
    let alpha = Instance.find_node inst "alpha" in
    Alcotest.(check int) "alpha prefs" 2 (List.length (Instance.permitted inst alpha))

let test_dsl_errors () =
  let expect_error text =
    match Dsl.parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error for %S" text
  in
  expect_error "edges a-b";
  (* missing dest *)
  expect_error "dest d\nedges d-x\nnode x: xq > xd";
  (* unknown node in path *)
  expect_error "dest d\nedges d-x\nfrobnicate x";
  (* unknown declaration *)
  expect_error "dest d\nedges dx";
  (* bad edge syntax *)
  expect_error "dest d\nedges d-x\nnode x xd" (* missing colon *)

let test_dsl_roundtrip () =
  List.iter
    (fun (name, inst) ->
      match Dsl.parse (Dsl.print inst) with
      | Error e -> Alcotest.failf "%s roundtrip: %s" name e
      | Ok inst' ->
        Alcotest.(check int) (name ^ " size") (Instance.size inst) (Instance.size inst');
        (* same permitted structure, compared by (name, printed prefs) *)
        let shape i =
          List.sort compare
            (List.map
               (fun v ->
                 ( Instance.name i v,
                   List.map (Path.to_string ~names:(Instance.names i)) (Instance.permitted i v) ))
               (Instance.nodes i))
        in
        Alcotest.(check bool) (name ^ " shape") true (shape inst = shape inst'))
    (Gadgets.all_named ())

let test_dsl_roundtrip_random () =
  List.iter
    (fun seed ->
      let inst = Generator.instance { Generator.default with seed } in
      match Dsl.parse (Dsl.print inst) with
      | Error e -> Alcotest.failf "seed %d: %s" seed e
      | Ok inst' ->
        Alcotest.(check int) "solutions agree" (Solver.count_solutions inst)
          (Solver.count_solutions inst'))
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Constructive solver *)

let test_constructive_good_gadget () =
  match Solver.constructive Gadgets.good_gadget with
  | Some a ->
    Alcotest.(check bool) "is the unique solution" true
      (Assignment.equal a (List.hd (Solver.solutions Gadgets.good_gadget)))
  | None -> Alcotest.fail "constructive failed on GOOD GADGET"

let test_constructive_bad_gadget () =
  Alcotest.(check bool) "fails on BAD GADGET" true
    (Solver.constructive Gadgets.bad_gadget = None)

let test_constructive_on_wheel_free () =
  (* On dispute-wheel-free instances the construction always succeeds and
     agrees with the enumerating solver's unique answer. *)
  List.iter
    (fun seed ->
      let inst = Generator.safe_instance { Generator.default with nodes = 6; seed } in
      match Solver.constructive inst with
      | None -> Alcotest.failf "constructive failed on safe instance (seed %d)" seed
      | Some a ->
        Alcotest.(check bool) "solution" true (Assignment.is_solution inst a))
    [ 1; 2; 3; 4; 5; 6 ]

let test_constructive_gr_instances () =
  List.iter
    (fun seed ->
      let topo = Bgp.Topology.generate { Bgp.Topology.default_config with seed } in
      let inst = Bgp.Policy.compile topo ~dest:(Bgp.Topology.size topo - 1) in
      match Solver.constructive inst with
      | None -> Alcotest.failf "constructive failed on Gao-Rexford (seed %d)" seed
      | Some a -> Alcotest.(check bool) "solution" true (Assignment.is_solution inst a))
    [ 21; 22; 23 ]

(* ------------------------------------------------------------------ *)
(* Timed simulator *)

let test_timed_batch_converges () =
  let inst = Gadgets.good_gadget in
  let r = Timed.run inst in
  Alcotest.(check bool) "converged" true r.Timed.converged;
  Alcotest.(check bool) "solution" true (Assignment.is_solution inst (State.assignment inst r.Timed.final));
  Alcotest.(check bool) "finished after last change" true
    (r.Timed.finish_time >= r.Timed.last_change)

let test_timed_event_converges () =
  let inst = Gadgets.good_gadget in
  let r = Timed.run ~config:{ Timed.default with Timed.mode = Timed.Event_driven } inst in
  Alcotest.(check bool) "converged" true r.Timed.converged;
  Alcotest.(check bool) "solution" true (Assignment.is_solution inst (State.assignment inst r.Timed.final))

let test_timed_gr_instance () =
  let topo = Bgp.Topology.generate Bgp.Topology.default_config in
  let inst = Bgp.Policy.compile topo ~dest:(Bgp.Topology.size topo - 1) in
  List.iter
    (fun mode ->
      let r = Timed.run ~config:{ Timed.default with Timed.mode = mode } inst in
      Alcotest.(check bool) "converged" true r.Timed.converged;
      Alcotest.(check bool) "solution" true (Assignment.is_solution inst (State.assignment inst r.Timed.final)))
    [ Timed.Batch; Timed.Event_driven ]

let test_timed_mrai_reduces_messages () =
  (* Batching more (larger MRAI) never inspects fewer messages per read, so
     the number of announcements typically falls; assert weak monotonicity
     between the two extremes. *)
  let topo = Bgp.Topology.generate { Bgp.Topology.default_config with seed = 77 } in
  let inst = Bgp.Policy.compile topo ~dest:(Bgp.Topology.size topo - 1) in
  match Timed.mrai_sweep ~intervals:[ 1; 16 ] (Timed.spp inst) with
  | [ (1, fast); (16, slow) ] ->
    Alcotest.(check bool) "both converge" true (fast.Timed.converged && slow.Timed.converged);
    Alcotest.(check bool) "batching sends no more messages" true
      (slow.Timed.messages <= fast.Timed.messages)
  | _ -> Alcotest.fail "unexpected sweep shape"

let test_timed_disagree_event_driven () =
  (* DISAGREE under deterministic event-driven timing with unit delays:
     the run must terminate one way or another within the horizon. *)
  let inst = Gadgets.disagree in
  let r =
    Timed.run
      ~config:{ Timed.default with Timed.mode = Timed.Event_driven; Timed.horizon = 5_000 }
      inst
  in
  (* Whichever outcome, the assignment must be consistent with the final
     state semantics. *)
  if r.Timed.converged then
    Alcotest.(check bool) "solution when converged" true
      (Assignment.is_solution inst (State.assignment inst r.Timed.final))


(* ------------------------------------------------------------------ *)
(* Replay (schedule serialization) *)

let test_replay_roundtrip_single () =
  let inst = Gadgets.disagree in
  let m = Option.get (Model.of_string "UMS") in
  let entries = Scheduler.prefix 30 (Scheduler.random inst m ~seed:9) in
  let text = Replay.print inst entries in
  match Replay.parse inst text with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok entries' ->
    Alcotest.(check int) "same length" (List.length entries) (List.length entries');
    (* replaying both produces identical traces *)
    let final es = Trace.final (Executor.run_entries inst es) in
    Alcotest.(check bool) "same behavior" true (State.equal (final entries) (final entries'))

let test_replay_roundtrip_multi () =
  let inst = Gadgets.disagree in
  let x = Gadgets.node inst 'x' and y = Gadgets.node inst 'y' in
  let entry =
    Activation.entry ~active:[ x; y ]
      ~reads:
        [
          Activation.read ~count:Activation.All (Channel.id ~src:y ~dst:x);
          Activation.read ~count:Activation.All (Channel.id ~src:x ~dst:y);
        ]
  in
  let text = Replay.print inst [ entry ] in
  match Replay.parse inst text with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok [ entry' ] ->
    Alcotest.(check (list int)) "actives" entry.Activation.active entry'.Activation.active;
    Alcotest.(check int) "reads" 2 (List.length entry'.Activation.reads)
  | Ok _ -> Alcotest.fail "wrong entry count"

let test_replay_drops_roundtrip () =
  let inst = Gadgets.disagree in
  let x = Gadgets.node inst 'x' and y = Gadgets.node inst 'y' in
  let entry =
    Activation.single x
      [ Activation.read ~drops:[ 1; 3 ] ~count:(Activation.Finite 4)
          (Channel.id ~src:y ~dst:x) ]
  in
  let text = Replay.print_entry inst entry in
  match Replay.parse_entry inst text with
  | Ok (Some e) ->
    let r = List.hd e.Activation.reads in
    Alcotest.(check (list int)) "drops survive" [ 1; 3 ]
      (Activation.IntSet.elements r.Activation.drops);
    Alcotest.(check bool) "count survives" true (r.Activation.count = Activation.Finite 4)
  | Ok None -> Alcotest.fail "empty parse"
  | Error e -> Alcotest.failf "parse error: %s" e

let test_replay_comments_and_errors () =
  let inst = Gadgets.disagree in
  (match Replay.parse inst "# comment\n\nx <- y:1\n" with
  | Ok [ _ ] -> ()
  | Ok l -> Alcotest.failf "expected one entry, got %d" (List.length l)
  | Error e -> Alcotest.failf "parse error: %s" e);
  (match Replay.parse inst "w <- y:1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unknown-node error");
  match Replay.parse inst "x <- y:lots" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected bad-count error"

(* ------------------------------------------------------------------ *)
(* Quiescence and stale dead ends *)

let test_quiescence_disagree () =
  let inst = Gadgets.disagree in
  let m s = Option.get (Model.of_string s) in
  (* Both stable solutions are reachable under R1O and under REA. *)
  Alcotest.(check int) "R1O reaches both" 2
    (Modelcheck.Quiescence.solution_count inst (m "R1O"));
  Alcotest.(check int) "REA reaches both" 2
    (Modelcheck.Quiescence.solution_count inst (m "REA"));
  (* Reliable models have no stale dead ends. *)
  Alcotest.(check int) "no stale under R1O" 0
    (List.length (Modelcheck.Quiescence.stale_quiescent_assignments inst (m "R1O")));
  (* Unreliable ones do (a final announcement can be dropped forever). *)
  Alcotest.(check bool) "stale dead ends under UMS" true
    (List.length (Modelcheck.Quiescence.stale_quiescent_assignments inst (m "UMS")) > 0)

let test_quiescence_bad_gadget () =
  let inst = Gadgets.bad_gadget in
  let m s = Option.get (Model.of_string s) in
  (* UEA keeps the unreliable state space small; UMS on BAD GADGET has
     millions of bounded states. *)
  Alcotest.(check int) "no real solutions ever" 0
    (Modelcheck.Quiescence.solution_count inst (m "UEA"));
  Alcotest.(check bool) "stale dead ends exist" true
    (List.length (Modelcheck.Quiescence.stale_quiescent_assignments inst (m "UEA")) > 0)

(* ------------------------------------------------------------------ *)
(* Fact audit *)

let test_audit_positives () =
  let entries = Modelcheck.Audit.positives ~seeds:[ 1 ] () in
  Alcotest.(check int) "one entry per fact" 124 (List.length entries);
  List.iter
    (fun (e : Modelcheck.Audit.entry) ->
      match e.Modelcheck.Audit.status with
      | Modelcheck.Audit.Verified -> ()
      | _ -> Alcotest.failf "unverified: %s" e.Modelcheck.Audit.fact)
    entries

let test_audit_negatives () =
  let entries = Modelcheck.Audit.negatives () in
  Alcotest.(check int) "one entry per fact" 15 (List.length entries);
  List.iter
    (fun (e : Modelcheck.Audit.entry) ->
      match e.Modelcheck.Audit.status with
      | Modelcheck.Audit.Verified -> ()
      | Modelcheck.Audit.Failed reason ->
        Alcotest.failf "failed: %s (%s)" e.Modelcheck.Audit.fact reason)
    entries

let () =
  Alcotest.run "tools"
    [
      ( "dsl",
        [
          Alcotest.test_case "parse DISAGREE" `Quick test_dsl_parse_disagree;
          Alcotest.test_case "multi-character names" `Quick test_dsl_multichar_names;
          Alcotest.test_case "errors" `Quick test_dsl_errors;
          Alcotest.test_case "gadget roundtrips" `Quick test_dsl_roundtrip;
          Alcotest.test_case "random roundtrips" `Quick test_dsl_roundtrip_random;
        ] );
      ( "constructive-solver",
        [
          Alcotest.test_case "GOOD GADGET" `Quick test_constructive_good_gadget;
          Alcotest.test_case "BAD GADGET" `Quick test_constructive_bad_gadget;
          Alcotest.test_case "wheel-free instances" `Quick test_constructive_on_wheel_free;
          Alcotest.test_case "Gao-Rexford instances" `Quick test_constructive_gr_instances;
        ] );
      ( "replay",
        [
          Alcotest.test_case "roundtrip random schedule" `Quick test_replay_roundtrip_single;
          Alcotest.test_case "roundtrip multi-node" `Quick test_replay_roundtrip_multi;
          Alcotest.test_case "roundtrip drops" `Quick test_replay_drops_roundtrip;
          Alcotest.test_case "comments and errors" `Quick test_replay_comments_and_errors;
        ] );
      ( "quiescence",
        [
          Alcotest.test_case "DISAGREE solutions reachable" `Quick test_quiescence_disagree;
          Alcotest.test_case "BAD GADGET has none" `Quick test_quiescence_bad_gadget;
        ] );
      ( "audit",
        [
          Alcotest.test_case "positive facts verify" `Quick test_audit_positives;
          Alcotest.test_case "negative facts verify" `Slow test_audit_negatives;
        ] );
      ( "timed",
        [
          Alcotest.test_case "batch mode" `Quick test_timed_batch_converges;
          Alcotest.test_case "event mode" `Quick test_timed_event_converges;
          Alcotest.test_case "BGP topology" `Quick test_timed_gr_instance;
          Alcotest.test_case "MRAI reduces messages" `Quick test_timed_mrai_reduces_messages;
          Alcotest.test_case "DISAGREE event-driven" `Quick test_timed_disagree_event_driven;
        ] );
    ]

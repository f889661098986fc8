(* Tests for the extension modules: heterogeneous per-node models
   (Engine.Hetero), multi-node activation regimes (Engine.Multi),
   convergence statistics (Engine.Stats), and qcheck property tests of the
   core step semantics. *)

open Spp
open Engine

let model s = Option.get (Model.of_string s)

(* ------------------------------------------------------------------ *)
(* Hetero *)

(* The shared validator with a per-node model; the uniform model argument
   is then unused. *)
let hetero_validates inst hetero =
  Model.validates ~model_of:(Hetero.model_of hetero) (View.spp inst) (model "REA")

let test_hetero_validation () =
  let inst = Gadgets.disagree in
  let x = Gadgets.node inst 'x' and y = Gadgets.node inst 'y' in
  let hetero = Hetero.of_list ~default:(model "REA") [ (x, model "R1O") ] in
  Alcotest.(check bool) "x's model" true (Model.equal (Hetero.model_of hetero x) (model "R1O"));
  Alcotest.(check bool) "y defaults" true (Model.equal (Hetero.model_of hetero y) (model "REA"));
  let r1o_entry =
    Activation.single x
      [ Activation.read ~count:(Activation.Finite 1) (Channel.id ~src:y ~dst:x) ]
  in
  Alcotest.(check bool) "x may act on one message" true (hetero_validates inst hetero r1o_entry);
  let polling_entry = Activation.poll_all (View.spp inst) y in
  Alcotest.(check bool) "y must poll" true (hetero_validates inst hetero polling_entry);
  let y_r1o =
    Activation.single y
      [ Activation.read ~count:(Activation.Finite 1) (Channel.id ~src:x ~dst:y) ]
  in
  Alcotest.(check bool) "y may not act on one message" false
    (hetero_validates inst hetero y_r1o)

let test_hetero_round_robin () =
  let inst = Gadgets.fig6 in
  let hetero =
    Hetero.of_list ~default:(model "REA")
      [ (Gadgets.node inst 'u', model "R1O"); (Gadgets.node inst 'v', model "RMS") ]
  in
  let sched =
    Scheduler.round_robin_of ~model_of:(Hetero.model_of hetero) (View.spp inst) (model "REA")
  in
  List.iter
    (fun e ->
      if not (hetero_validates inst hetero e) then
        Alcotest.failf "invalid heterogeneous entry %a" (Activation.pp inst) e)
    (Scheduler.prefix (Option.get sched.Scheduler.period) sched);
  Alcotest.(check bool) "fair" true
    (Fairness.cycle_is_fair inst (Scheduler.prefix (Option.get sched.Scheduler.period) sched))

let test_hetero_uniform_agrees_with_model () =
  (* analyze_hetero with a uniform assignment must agree with analyze. *)
  let inst = Gadgets.disagree in
  List.iter
    (fun name ->
      let m = model name in
      let homo = Modelcheck.Oscillation.analyze inst m in
      let hetero = Modelcheck.Oscillation.analyze_hetero inst (Hetero.uniform m) in
      Alcotest.(check string) (name ^ " verdicts agree")
        (Modelcheck.Oscillation.verdict_name homo)
        (Modelcheck.Oscillation.verdict_name hetero))
    [ "R1O"; "RMS"; "REA"; "RMA"; "UMS"; "UEA" ]

let test_hetero_disagree_mixed_polling () =
  (* The Sec. 5 open question, answered on DISAGREE: both contested nodes
     must poll; one message-passing node restores the oscillation. *)
  let inst = Gadgets.disagree in
  let x = Gadgets.node inst 'x' and y = Gadgets.node inst 'y' in
  let check mx my expected =
    let hetero = Hetero.of_list ~default:(model "REA") [ (x, model mx); (y, model my) ] in
    match (Modelcheck.Oscillation.analyze_hetero inst hetero, expected) with
    | Modelcheck.Oscillation.Converges, `Converges -> ()
    | Modelcheck.Oscillation.Oscillates w, `Oscillates ->
      Alcotest.(check bool)
        (Printf.sprintf "witness replays (x=%s y=%s)" mx my)
        true
        (Modelcheck.Oscillation.verify_witness_hetero inst hetero w)
    | v, _ ->
      Alcotest.failf "x=%s y=%s: unexpected %a" mx my Modelcheck.Oscillation.pp_verdict v
  in
  check "REA" "REA" `Converges;
  check "RMA" "REA" `Converges;
  check "REA" "R1O" `Oscillates;
  check "R1O" "REA" `Oscillates;
  check "RMS" "REA" `Oscillates

(* ------------------------------------------------------------------ *)
(* Multi *)

let test_multi_validation () =
  let inst = Gadgets.disagree in
  let sync = Multi.synchronous_polling inst in
  let entry = List.hd (Scheduler.prefix 1 sync) in
  Alcotest.(check bool) "synchronous entry valid" true
    (Multi.validates inst Multi.Synchronous (model "REA") entry);
  Alcotest.(check bool) "also valid unrestricted" true
    (Multi.validates inst Multi.Unrestricted (model "REA") entry);
  (* A single-node entry is not synchronous. *)
  let single = Activation.poll_all (View.spp inst) (Gadgets.node inst 'x') in
  Alcotest.(check bool) "single not synchronous" false
    (Multi.validates inst Multi.Synchronous (model "REA") single);
  Alcotest.(check bool) "single ok unrestricted" true
    (Multi.validates inst Multi.Unrestricted (model "REA") single)

let test_multi_disagree_oscillates () =
  (* Ex. A.6 / Sec. 5: synchronous polling oscillates on DISAGREE even
     though single-node polling provably converges. *)
  let inst = Gadgets.disagree in
  let r = Executor.run ~max_steps:100 inst (Multi.synchronous_polling inst) in
  match r.Executor.stop with
  | Executor.Cycle _ -> ()
  | s -> Alcotest.failf "expected oscillation, got %a" Executor.pp_stop s

let test_multi_good_gadget_converges () =
  let inst = Gadgets.good_gadget in
  let r = Executor.run ~max_steps:100 inst (Multi.synchronous_polling inst) in
  (match r.Executor.stop with
  | Executor.Converged -> ()
  | s -> Alcotest.failf "expected convergence, got %a" Executor.pp_stop s);
  Alcotest.(check bool) "greedy fixpoint matches" true
    (Assignment.equal
       (State.assignment inst (Trace.final r.Executor.trace))
       (Solver.greedy inst))

let test_multi_sync_rounds_match_greedy_iterates () =
  (* Each synchronous round applies one best-response step to the
     assignments announced a round earlier; on a convergent instance the
     final round equals the greedy fixpoint. *)
  let inst = Gadgets.shortest_paths ~n:4 in
  let r = Executor.run ~max_steps:50 inst (Multi.synchronous_polling inst) in
  Alcotest.(check bool) "converged" true (r.Executor.stop = Executor.Converged);
  Alcotest.(check bool) "fixpoint" true
    (Assignment.equal
       (State.assignment inst (Trace.final r.Executor.trace))
       (Solver.greedy inst))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_measure () =
  let inst = Gadgets.good_gadget in
  let s = Stats.measure inst (Scheduler.round_robin inst (model "RMS")) in
  Alcotest.(check bool) "converged" true s.Stats.converged;
  Alcotest.(check bool) "positive steps" true (s.Stats.steps > 0);
  Alcotest.(check bool) "messages sent" true (s.Stats.messages > 0)

let test_stats_across_seeds () =
  let inst = Gadgets.good_gadget in
  let summary =
    Stats.across_seeds inst
      ~scheduler:(fun ~seed -> Scheduler.random inst (model "RMS") ~seed)
      ~seeds:[ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check int) "runs" 5 summary.Stats.runs;
  Alcotest.(check bool) "all converged" true summary.Stats.all_converged;
  Alcotest.(check bool) "mean <= max" true
    (summary.Stats.mean_steps <= float_of_int summary.Stats.max_steps)

(* ------------------------------------------------------------------ *)
(* Property tests of the step semantics *)

let gen_setup =
  QCheck2.Gen.(
    let* seed = int_range 0 99_999 in
    let* model_ix = int_range 0 23 in
    let* steps = int_range 1 60 in
    return (seed, List.nth Model.all model_ix, steps))

let run_random_prefix inst m ~seed ~steps =
  let sched = Scheduler.random inst m ~seed in
  Executor.run_entries inst (Scheduler.prefix steps sched)

let prop_pi_equals_best_choice =
  QCheck2.Test.make ~name:"pi is always best_choice of rho" ~count:60 gen_setup
    (fun (seed, m, steps) ->
      let inst = Gadgets.fig6 in
      let tr = run_random_prefix inst m ~seed ~steps in
      List.for_all
        (fun (s : Trace.step) ->
          let st = s.Trace.outcome.Step.state in
          List.for_all
            (fun v -> Path.equal (State.pi st v) (State.best_choice inst st v))
            s.Trace.entry.Activation.active)
        (Trace.steps tr))

let prop_message_conservation =
  QCheck2.Test.make ~name:"messages pushed - processed = queued" ~count:60 gen_setup
    (fun (seed, m, steps) ->
      let inst = Gadgets.fig6 in
      let tr = run_random_prefix inst m ~seed ~steps in
      let pushed, processed =
        List.fold_left
          (fun (p, c) (s : Trace.step) ->
            ( p + List.length s.Trace.outcome.Step.pushed,
              c + List.fold_left (fun a (_, n) -> a + n) 0 s.Trace.outcome.Step.processed ))
          (0, 0) (Trace.steps tr)
      in
      let queued = Channel.total_messages (State.channels (Trace.final tr)) in
      pushed - processed = queued)

let prop_announced_tracks_pi =
  QCheck2.Test.make ~name:"after activation, announced = pi" ~count:60 gen_setup
    (fun (seed, m, steps) ->
      let inst = Gadgets.fig6 in
      let tr = run_random_prefix inst m ~seed ~steps in
      List.for_all
        (fun (s : Trace.step) ->
          let st = s.Trace.outcome.Step.state in
          List.for_all
            (fun v -> Path.equal (State.pi st v) (State.announced st v))
            s.Trace.entry.Activation.active)
        (Trace.steps tr))

let prop_quiescent_iff_solution =
  QCheck2.Test.make ~name:"quiescent states carry stable solutions" ~count:30
    QCheck2.Gen.(int_range 0 9_999)
    (fun seed ->
      let inst = Generator.safe_instance { Generator.default with nodes = 5; seed } in
      let r = Executor.run inst (Scheduler.round_robin inst (model "RMS")) in
      match r.Executor.stop with
      | Executor.Converged ->
        Assignment.is_solution inst (State.assignment inst (Trace.final r.Executor.trace))
      | _ -> false)

let prop_rho_is_some_pushed_message =
  QCheck2.Test.make ~name:"rho only holds announced routes" ~count:40 gen_setup
    (fun (seed, m, steps) ->
      let inst = Gadgets.disagree in
      let tr = run_random_prefix inst m ~seed ~steps in
      (* every non-epsilon known route was announced by its channel's
         source at some earlier step *)
      let announced = Hashtbl.create 16 in
      List.for_all
        (fun (s : Trace.step) ->
          List.iter
            (fun (v, p) -> Hashtbl.replace announced (v, p) ())
            s.Trace.outcome.Step.announcements;
          List.for_all
            (fun ((c : Channel.id), r) ->
              Path.is_epsilon r || Hashtbl.mem announced (c.Channel.src, r))
            (State.rho_bindings s.Trace.outcome.Step.state))
        (Trace.steps tr))

let prop_fifo_order =
  QCheck2.Test.make ~name:"channels deliver in FIFO order" ~count:40 gen_setup
    (fun (seed, m, steps) ->
      (* Reconstruct each channel's stream: pushes happen in order; the
         queue at any time must be a contiguous suffix of the pushes. *)
      let inst = Gadgets.disagree in
      let tr = run_random_prefix inst m ~seed ~steps in
      let pushed : (Channel.id, Path.t list) Hashtbl.t = Hashtbl.create 16 in
      List.for_all
        (fun (s : Trace.step) ->
          List.iter
            (fun (c, p) ->
              Hashtbl.replace pushed c
                (Option.value ~default:[] (Hashtbl.find_opt pushed c) @ [ p ]))
            s.Trace.outcome.Step.pushed;
          let chans = State.channels s.Trace.outcome.Step.state in
          List.for_all
            (fun (c, queue) ->
              let history = Option.value ~default:[] (Hashtbl.find_opt pushed c) in
              let k = List.length history - List.length queue in
              k >= 0
              && List.equal Path.equal queue
                   (List.filteri (fun i _ -> i >= k) history))
            (Channel.bindings_paths chans))
        (Trace.steps tr))

(* ------------------------------------------------------------------ *)
(* Drop semantics of Step.apply (the g function of Def. 2.2) *)

let gen_reliable_setup =
  QCheck2.Gen.(
    let* seed = int_range 0 99_999 in
    let* model_ix = int_range 0 (List.length Model.reliable - 1) in
    let* steps = int_range 1 60 in
    return (seed, List.nth Model.reliable model_ix, steps))

let prop_reliable_never_drops =
  QCheck2.Test.make ~name:"reliable schedules never drop" ~count:60 gen_reliable_setup
    (fun (seed, m, steps) ->
      let inst = Gadgets.fig6 in
      let tr = run_random_prefix inst m ~seed ~steps in
      List.for_all
        (fun (s : Trace.step) -> s.Trace.outcome.Step.dropped = [])
        (Trace.steps tr))

(* A queue of distinguishable messages on DISAGREE's (y,x) channel: message
   j (1-based, oldest first) is the bogus-but-well-formed path [10+j; y; d],
   so rho after the step identifies exactly which message was kept. *)
let drop_setup inst ~queued =
  let y = Gadgets.node inst 'y' and x = Gadgets.node inst 'x' in
  let d = Instance.dest inst in
  let c = Channel.id ~src:y ~dst:x in
  let msg j = Path.of_nodes [ 10 + j; y; d ] in
  let st =
    List.fold_left
      (fun st j ->
        State.with_channels st (Channel.push_path (State.channels st) c (msg j)))
      (State.initial inst)
      (List.init queued (fun j -> j + 1))
  in
  (c, x, msg, st)

let gen_drop_entry =
  QCheck2.Gen.(
    let* queued = int_range 0 6 in
    let* count =
      oneof [ return Activation.All; map (fun f -> Activation.Finite f) (int_range 0 8) ]
    in
    let bound = match count with Activation.All -> 8 | Activation.Finite f -> f in
    let* drops =
      if bound = 0 then return [] else list_size (int_range 0 bound) (int_range 1 bound)
    in
    return (queued, count, drops))

let processed_count queued = function
  | Activation.All -> queued
  | Activation.Finite f -> min f queued

let prop_kept_is_newest_undropped =
  QCheck2.Test.make ~name:"rho keeps the newest non-dropped processed message"
    ~count:200 gen_drop_entry
    (fun (queued, count, drops) ->
      let inst = Gadgets.disagree in
      let c, x, msg, st = drop_setup inst ~queued in
      let o = Step.apply inst st (Activation.single x [ Activation.read ~drops ~count c ]) in
      let i = processed_count queued count in
      let dropset = Activation.IntSet.of_list drops in
      (* Reference semantics: the newest index j <= i with j not dropped; if
         every processed message was dropped, rho is unchanged (epsilon in
         the initial state). *)
      let rec newest j best =
        if j > i then best
        else newest (j + 1) (if Activation.IntSet.mem j dropset then best else Some j)
      in
      let expected =
        match newest 1 None with None -> Path.epsilon | Some j -> msg j
      in
      Path.equal (State.rho o.Step.state c) expected)

let prop_drop_counts_reconcile =
  QCheck2.Test.make ~name:"processed/dropped counts reconcile with the queue"
    ~count:200 gen_drop_entry
    (fun (queued, count, drops) ->
      let inst = Gadgets.disagree in
      let c, x, _msg, st = drop_setup inst ~queued in
      let o = Step.apply inst st (Activation.single x [ Activation.read ~drops ~count c ]) in
      let i = processed_count queued count in
      let n_proc = Option.value ~default:0 (List.assoc_opt c o.Step.processed) in
      let n_drop = Option.value ~default:0 (List.assoc_opt c o.Step.dropped) in
      let dropset = Activation.IntSet.of_list drops in
      let expected_drops =
        Activation.IntSet.cardinal (Activation.IntSet.filter (fun j -> j <= i) dropset)
      in
      n_proc = i && n_drop = expected_drops
      && n_drop <= n_proc
      && Channel.length (State.channels o.Step.state) c = queued - i)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pi_equals_best_choice;
      prop_message_conservation;
      prop_announced_tracks_pi;
      prop_quiescent_iff_solution;
      prop_rho_is_some_pushed_message;
      prop_fifo_order;
      prop_reliable_never_drops;
      prop_kept_is_newest_undropped;
      prop_drop_counts_reconcile;
    ]

let () =
  Alcotest.run "extensions"
    [
      ( "hetero",
        [
          Alcotest.test_case "validation" `Quick test_hetero_validation;
          Alcotest.test_case "round-robin scheduler" `Quick test_hetero_round_robin;
          Alcotest.test_case "uniform agrees with homogeneous" `Quick
            test_hetero_uniform_agrees_with_model;
          Alcotest.test_case "mixed polling on DISAGREE (Sec 5)" `Quick
            test_hetero_disagree_mixed_polling;
        ] );
      ( "multi",
        [
          Alcotest.test_case "validation regimes" `Quick test_multi_validation;
          Alcotest.test_case "synchronous DISAGREE oscillates (Ex A.6)" `Quick
            test_multi_disagree_oscillates;
          Alcotest.test_case "synchronous GOOD GADGET converges" `Quick
            test_multi_good_gadget_converges;
          Alcotest.test_case "rounds reach greedy fixpoint" `Quick
            test_multi_sync_rounds_match_greedy_iterates;
        ] );
      ( "stats",
        [
          Alcotest.test_case "measure" `Quick test_stats_measure;
          Alcotest.test_case "across seeds" `Quick test_stats_across_seeds;
        ] );
      ("semantics-properties", properties);
    ]

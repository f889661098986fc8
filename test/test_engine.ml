(* Tests for the execution engine: Def. 2.2/2.3 semantics, the model
   taxonomy, schedulers, fairness bookkeeping, and step-for-step replays of
   the paper's appendix examples. *)

open Spp
open Engine

let chan inst a b =
  Channel.id ~src:(Gadgets.node inst a) ~dst:(Gadgets.node inst b)

let read1 inst a b = Activation.read ~count:(Activation.Finite 1) (chan inst a b)
let read_all inst a b = Activation.read ~count:Activation.All (chan inst a b)

let single inst c reads = Activation.single (Gadgets.node inst c) reads

(* One-message-per-channel poll of every channel (the REO/REF entry shape). *)
let poll1 inst c =
  let v = Gadgets.node inst c in
  single inst c
    (List.map
       (fun ch -> Activation.read ~count:(Activation.Finite 1) ch)
       ((View.spp inst).required v))

let model s =
  match Model.of_string s with Some m -> m | None -> Alcotest.failf "bad model %s" s

let run_rows inst entries =
  Trace.row_strings (Executor.run_entries inst entries)

let check_rows what expected actual =
  Alcotest.(check (list (pair string string))) what expected actual

(* ------------------------------------------------------------------ *)
(* Model taxonomy *)

let test_model_roundtrip () =
  Alcotest.(check int) "24 models" 24 (List.length Model.all);
  List.iter
    (fun m ->
      let s = Model.to_string m in
      (* of_string is tolerant of case and surrounding whitespace. *)
      List.iter
        (fun variant ->
          match Model.of_string variant with
          | Some m' -> Alcotest.(check bool) variant true (Model.equal m m')
          | None -> Alcotest.failf "roundtrip failed on %S" variant)
        [ s; String.lowercase_ascii s; " " ^ s ^ "\n"; "\t " ^ String.lowercase_ascii s ])
    Model.all;
  List.iter
    (fun garbage ->
      Alcotest.(check (option reject)) garbage None (Model.of_string garbage))
    [ "XYZ"; ""; "R1"; "R1OA"; "1RO"; "R 1O"; "   " ]

let test_model_families () =
  let m = model in
  Alcotest.(check bool) "REA polling" true (Model.is_polling (m "REA"));
  Alcotest.(check bool) "R1O message-passing" true (Model.is_message_passing (m "R1O"));
  Alcotest.(check bool) "RMS queueing" true (Model.is_queueing (m "RMS"));
  Alcotest.(check bool) "UMS queueing" true (Model.is_queueing (m "UMS"));
  Alcotest.(check bool) "RES not queueing" false (Model.is_queueing (m "RES"))

let test_model_includes () =
  let m = model in
  (* Prop. 3.3's syntactic inclusions. *)
  Alcotest.(check bool) "U includes R" true (Model.includes (m "UMS") (m "RMS"));
  Alcotest.(check bool) "S includes F" true (Model.includes (m "R1S") (m "R1F"));
  Alcotest.(check bool) "F includes O" true (Model.includes (m "R1F") (m "R1O"));
  Alcotest.(check bool) "F includes A" true (Model.includes (m "R1F") (m "R1A"));
  Alcotest.(check bool) "M includes 1" true (Model.includes (m "RMO") (m "R1O"));
  Alcotest.(check bool) "M includes E" true (Model.includes (m "RMO") (m "REO"));
  Alcotest.(check bool) "R not includes U" false (Model.includes (m "RMS") (m "UMS"));
  Alcotest.(check bool) "O not includes A" false (Model.includes (m "R1O") (m "R1A"));
  Alcotest.(check bool) "E not includes 1" false (Model.includes (m "REO") (m "R1O"));
  (* includes is reflexive *)
  List.iter
    (fun x -> Alcotest.(check bool) (Model.to_string x) true (Model.includes x x))
    Model.all

let test_model_validation () =
  let inst = Gadgets.disagree in
  let x = Gadgets.node inst 'x' in
  (* REA accepts a full poll *)
  Alcotest.(check bool) "REA poll ok" true
    (Model.validates (View.spp inst) (model "REA") (Activation.poll_all (View.spp inst) x));
  (* REA rejects a partial poll *)
  Alcotest.(check bool) "REA partial rejected" false
    (Model.validates (View.spp inst) (model "REA") (single inst 'x' [ read_all inst 'd' 'x' ]));
  (* R1O accepts exactly one single-message read *)
  Alcotest.(check bool) "R1O ok" true
    (Model.validates (View.spp inst) (model "R1O") (single inst 'x' [ read1 inst 'y' 'x' ]));
  Alcotest.(check bool) "R1O wrong count" false
    (Model.validates (View.spp inst) (model "R1O") (single inst 'x' [ read_all inst 'y' 'x' ]));
  Alcotest.(check bool) "R1O two channels" false
    (Model.validates (View.spp inst) (model "R1O")
       (single inst 'x' [ read1 inst 'y' 'x'; read1 inst 'd' 'x' ]));
  (* Drops are rejected on reliable channels, accepted on unreliable ones *)
  let dropping =
    single inst 'x' [ Activation.read ~count:(Activation.Finite 1) ~drops:[ 1 ] (chan inst 'y' 'x') ]
  in
  Alcotest.(check bool) "R1O rejects drop" false (Model.validates (View.spp inst) (model "R1O") dropping);
  Alcotest.(check bool) "U1O accepts drop" true (Model.validates (View.spp inst) (model "U1O") dropping);
  (* M_forced rejects zero-message reads, M_some accepts them *)
  let zero = single inst 'x' [ Activation.read ~count:(Activation.Finite 0) (chan inst 'y' 'x') ] in
  Alcotest.(check bool) "RMF rejects f=0" false (Model.validates (View.spp inst) (model "RMF") zero);
  Alcotest.(check bool) "RMS accepts f=0" true (Model.validates (View.spp inst) (model "RMS") zero);
  (* Multi-node entries are rejected by the single-node validator *)
  let multi =
    Activation.entry
      ~active:[ x; Gadgets.node inst 'y' ]
      ~reads:[ read_all inst 'y' 'x'; read_all inst 'x' 'y' ]
  in
  Alcotest.(check bool) "single-node validator" false
    (Model.validates (View.spp inst) (model "RMA") multi);
  Alcotest.(check bool) "multi-node validator" true
    (Model.validates_multi (View.spp inst) (model "R1A") multi)

let test_activation_well_formed () =
  let inst = Gadgets.disagree in
  let bad_drop =
    single inst 'x'
      [ Activation.read ~count:(Activation.Finite 1) ~drops:[ 2 ] (chan inst 'y' 'x') ]
  in
  Alcotest.(check bool) "drop index beyond f" true
    (Activation.well_formed (View.spp inst) bad_drop <> []);
  let dup = single inst 'x' [ read1 inst 'y' 'x'; read1 inst 'y' 'x' ] in
  Alcotest.(check bool) "duplicate channel" true (Activation.well_formed (View.spp inst) dup <> []);
  let foreign = single inst 'x' [ read1 inst 'd' 'y' ] in
  Alcotest.(check bool) "reader not active" true
    (Activation.well_formed (View.spp inst) foreign <> [])

(* ------------------------------------------------------------------ *)
(* Step semantics *)

let test_step_initial_announce () =
  let inst = Gadgets.disagree in
  let st = State.initial inst in
  (* d's first activation announces d even though pi_d(0) = d. *)
  let o = Step.apply inst st (single inst 'd' [ read1 inst 'x' 'd' ]) in
  Alcotest.(check int) "one announcement" 1 (List.length o.Step.announcements);
  Alcotest.(check int) "message to x" 1
    (Channel.length (State.channels o.Step.state) (chan inst 'd' 'x'));
  Alcotest.(check int) "message to y" 1
    (Channel.length (State.channels o.Step.state) (chan inst 'd' 'y'));
  (* Re-activating d announces nothing new. *)
  let o2 = Step.apply inst o.Step.state (single inst 'd' [ read1 inst 'x' 'd' ]) in
  Alcotest.(check int) "no second announcement" 0 (List.length o2.Step.announcements)

let test_step_min_count () =
  (* Processing f messages from a channel holding m < f consumes only m. *)
  let inst = Gadgets.disagree in
  let st = State.initial inst in
  let o = Step.apply inst st (single inst 'd' [ read1 inst 'x' 'd' ]) in
  let o =
    Step.apply inst o.Step.state
      (single inst 'x' [ Activation.read ~count:(Activation.Finite 5) (chan inst 'd' 'x') ])
  in
  Alcotest.(check (list (pair (of_pp Fmt.nop) int))) "processed one"
    [ (chan inst 'd' 'x', 1) ]
    o.Step.processed;
  Alcotest.(check string) "x chose xd" "xd"
    (Path.to_string ~names:(Instance.names inst) (State.pi o.Step.state (Gadgets.node inst 'x')))

let test_step_fifo_last_kept () =
  (* With several processed messages, rho keeps the newest non-dropped. *)
  let inst = Gadgets.fig8 in
  let entries =
    [
      single inst 'd' [ read1 inst 'a' 'd' ];
      poll1 inst 'a';
      poll1 inst 'u';
      poll1 inst 'b';
      poll1 inst 'u';
      (* (u,s) now holds [uad; ubd]; read both, keep ubd *)
      single inst 's' [ read_all inst 'u' 's' ];
    ]
  in
  let tr = Executor.run_entries inst entries in
  let final = Trace.final tr in
  Alcotest.(check string) "rho keeps last" "ubd"
    (Path.to_string ~names:(Instance.names inst)
       (State.rho final (chan inst 'u' 's')));
  Alcotest.(check string) "s chose subd" "subd"
    (Path.to_string ~names:(Instance.names inst)
       (State.pi final (Gadgets.node inst 's')))

let test_step_drop_semantics () =
  (* Dropping the only processed message leaves rho unchanged but consumes
     the message. *)
  let inst = Gadgets.disagree in
  let st = State.initial inst in
  let o = Step.apply inst st (single inst 'd' [ read1 inst 'x' 'd' ]) in
  let dropping =
    single inst 'x'
      [ Activation.read ~count:(Activation.Finite 1) ~drops:[ 1 ] (chan inst 'd' 'x') ]
  in
  let o2 = Step.apply inst o.Step.state dropping in
  Alcotest.(check bool) "rho still epsilon" true
    (Path.is_epsilon (State.rho o2.Step.state (chan inst 'd' 'x')));
  Alcotest.(check int) "message consumed" 0
    (Channel.length (State.channels o2.Step.state) (chan inst 'd' 'x'));
  Alcotest.(check bool) "x has no route" true
    (Path.is_epsilon (State.pi o2.Step.state (Gadgets.node inst 'x')))

let test_step_drop_middle () =
  (* Drop hits an intermediate message: the last processed survives. *)
  let inst = Gadgets.fig8 in
  let prefix =
    [
      single inst 'd' [ read1 inst 'a' 'd' ];
      poll1 inst 'a';
      poll1 inst 'u';
      poll1 inst 'b';
      poll1 inst 'u';
    ]
  in
  let tr = Executor.run_entries inst prefix in
  let st = Trace.final tr in
  (* (u,s) = [uad; ubd]: process both, dropping #2 -> keep uad *)
  let o =
    Step.apply inst st
      (single inst 's'
         [ Activation.read ~count:(Activation.Finite 2) ~drops:[ 2 ] (chan inst 'u' 's') ])
  in
  Alcotest.(check string) "kept first" "uad"
    (Path.to_string ~names:(Instance.names inst) (State.rho o.Step.state (chan inst 'u' 's')));
  Alcotest.(check string) "s chose suad" "suad"
    (Path.to_string ~names:(Instance.names inst) (State.pi o.Step.state (Gadgets.node inst 's')))

let test_step_withdrawal () =
  (* A node losing its route announces epsilon and the neighbor unlearns. *)
  let inst = Gadgets.fig6 in
  let entries =
    [
      poll1 inst 'd';
      poll1 inst 'x';
      poll1 inst 'a';
      poll1 inst 'u';
      poll1 inst 'v';
      poll1 inst 'y';
      poll1 inst 'a';
      poll1 inst 'u';
      (* u read ayd and vuaxd: no feasible route, withdraws *)
    ]
  in
  let tr = Executor.run_entries inst entries in
  let final = Trace.final tr in
  Alcotest.(check bool) "u withdrew" true
    (Path.is_epsilon (State.pi final (Gadgets.node inst 'u')));
  (* The withdrawal is in (u,v). *)
  let q = Channel.get_paths (State.channels final) (chan inst 'u' 'v') in
  Alcotest.(check bool) "epsilon queued to v" true
    (List.exists Path.is_epsilon q)

(* ------------------------------------------------------------------ *)
(* Example A.1: DISAGREE *)

let disagree_r1o_prefix inst =
  [
    single inst 'd' [ read1 inst 'x' 'd' ];
    single inst 'x' [ read1 inst 'd' 'x' ];
    single inst 'y' [ read1 inst 'd' 'y' ];
  ]

let disagree_r1o_cycle inst =
  [
    single inst 'x' [ read1 inst 'y' 'x' ];
    single inst 'y' [ read1 inst 'x' 'y' ];
    single inst 'x' [ read1 inst 'd' 'x' ];
    single inst 'y' [ read1 inst 'd' 'y' ];
    single inst 'd' [ read1 inst 'x' 'd' ];
  ]

let test_disagree_r1o_oscillates () =
  let inst = Gadgets.disagree in
  let sched = Scheduler.prefixed (disagree_r1o_prefix inst) (disagree_r1o_cycle inst) in
  (* All entries are legal R1O entries. *)
  let r = Executor.run ~validate:(model "R1O") ~max_steps:500 inst sched in
  (match r.Executor.stop with
  | Executor.Cycle _ -> ()
  | s -> Alcotest.failf "expected a cycle, got %a" Executor.pp_stop s);
  (* The oscillation really changes path assignments. *)
  let pis =
    List.map
      (fun a -> Assignment.get a (Gadgets.node inst 'x'))
      (Trace.assignments r.Executor.trace)
  in
  Alcotest.(check bool) "x's route oscillates" true
    (List.exists (Path.equal (Gadgets.path inst "xd")) pis
    && List.exists (Path.equal (Gadgets.path inst "xyd")) pis)

let test_disagree_r1o_cycle_fair () =
  let inst = Gadgets.disagree in
  Alcotest.(check bool) "cycle reads every channel" true
    (Fairness.cycle_is_fair inst (disagree_r1o_cycle inst))

let test_disagree_converges_in_strong_models () =
  let inst = Gadgets.disagree in
  List.iter
    (fun name ->
      let m = model name in
      let r = Executor.run ~validate:m inst (Scheduler.round_robin inst m) in
      (match r.Executor.stop with
      | Executor.Converged -> ()
      | s -> Alcotest.failf "%s: expected convergence, got %a" name Executor.pp_stop s);
      Alcotest.(check bool) (name ^ " reaches a stable solution") true
        (Assignment.is_solution inst
           (State.assignment inst (Trace.final r.Executor.trace))))
    [ "REO"; "REF"; "R1A"; "RMA"; "REA"; "RMS"; "UMS" ]

(* ------------------------------------------------------------------ *)
(* Example A.2: FIG6 under REO *)

let fig6_reo_entries inst =
  List.map (fun c -> poll1 inst c)
    [ 'd'; 'x'; 'a'; 'u'; 'v'; 'y'; 'a'; 'u'; 'v'; 'z'; 'a'; 'v'; 'u' ]

let test_fig6_reo_replay () =
  let inst = Gadgets.fig6 in
  let rows = run_rows inst (fig6_reo_entries inst) in
  check_rows "Ex. A.2 steps 1-13"
    [
      ("d", "d"); ("x", "xd"); ("a", "axd"); ("u", "uaxd"); ("v", "vuaxd");
      ("y", "yd"); ("a", "ayd"); ("u", "\xCE\xB5"); ("v", "vayd"); ("z", "zd");
      ("a", "azd"); ("v", "vazd"); ("u", "uazd");
    ]
    rows

let test_fig6_reo_entries_validate () =
  let inst = Gadgets.fig6 in
  List.iter
    (fun e ->
      Alcotest.(check bool) "validates in REO" true
        (Model.validates (View.spp inst) (model "REO") e))
    (fig6_reo_entries inst)

let test_fig6_reo_oscillates () =
  let inst = Gadgets.fig6 in
  (* u and v flap forever; the other nodes' polls are no-ops that keep the
     schedule fair and drain the queues into a, x, y, z. *)
  let cycle = List.map (fun c -> poll1 inst c) [ 'v'; 'u'; 'a'; 'x'; 'y'; 'z'; 'd' ] in
  Alcotest.(check bool) "cycle is fair" true (Fairness.cycle_is_fair inst cycle);
  let sched = Scheduler.prefixed (fig6_reo_entries inst) cycle in
  let r = Executor.run ~validate:(model "REO") ~max_steps:500 inst sched in
  match r.Executor.stop with
  | Executor.Cycle _ -> ()
  | s -> Alcotest.failf "expected oscillation, got %a" Executor.pp_stop s

let test_fig6_converges_in_polling_models () =
  let inst = Gadgets.fig6 in
  List.iter
    (fun name ->
      let m = model name in
      let r = Executor.run ~validate:m inst (Scheduler.round_robin inst m) in
      match r.Executor.stop with
      | Executor.Converged -> ()
      | s -> Alcotest.failf "%s: expected convergence, got %a" name Executor.pp_stop s)
    [ "R1A"; "RMA"; "REA" ]

(* ------------------------------------------------------------------ *)
(* Example A.3: FIG7 under REO vs R1O *)

let test_fig7_reo_replay () =
  let inst = Gadgets.fig7 in
  let entries =
    List.map (fun c -> poll1 inst c) [ 'd'; 'b'; 'u'; 'v'; 'a'; 'u'; 'v'; 's'; 's'; 's' ]
  in
  let rows = run_rows inst entries in
  check_rows "Ex. A.3 REO"
    [
      ("d", "d"); ("b", "bd"); ("u", "ubd"); ("v", "vbd"); ("a", "ad");
      ("u", "uad"); ("v", "vad"); ("s", "subd"); ("s", "suad"); ("s", "suad");
    ]
    rows

let test_fig7_r1o_replay () =
  let inst = Gadgets.fig7 in
  let entries =
    [
      single inst 'd' [ read1 inst 'a' 'd' ];
      single inst 'b' [ read1 inst 'd' 'b' ];
      single inst 'u' [ read1 inst 'b' 'u' ];
      single inst 'v' [ read1 inst 'b' 'v' ];
      single inst 'a' [ read1 inst 'd' 'a' ];
      single inst 'u' [ read1 inst 'a' 'u' ];
      single inst 'v' [ read1 inst 'a' 'v' ];
      single inst 's' [ read1 inst 'u' 's' ];
      single inst 's' [ read1 inst 'u' 's' ];
      single inst 's' [ read1 inst 'v' 's' ];
    ]
  in
  let rows = run_rows inst entries in
  check_rows "Ex. A.3 R1O"
    [
      ("d", "d"); ("b", "bd"); ("u", "ubd"); ("v", "vbd"); ("a", "ad");
      ("u", "uad"); ("v", "vad"); ("s", "subd"); ("s", "suad"); ("s", "svbd");
    ]
    rows

(* ------------------------------------------------------------------ *)
(* Example A.4: FIG8 under REA *)

let test_fig8_rea_replay () =
  let inst = Gadgets.fig8 in
  let entries = List.map (fun c -> Activation.poll_all (View.spp inst) (Gadgets.node inst c))
      [ 'd'; 'a'; 'u'; 'b'; 'u'; 's' ]
  in
  List.iter
    (fun e ->
      Alcotest.(check bool) "validates in REA" true
        (Model.validates (View.spp inst) (model "REA") e))
    entries;
  let rows = run_rows inst entries in
  check_rows "Ex. A.4 REA"
    [ ("d", "d"); ("a", "ad"); ("u", "uad"); ("b", "bd"); ("u", "ubd"); ("s", "subd") ]
    rows

let test_fig8_r1o_subsequence_insertion () =
  (* The paper notes R1O realizes the A.4 sequence as a subsequence,
     inserting suad just before subd. *)
  let inst = Gadgets.fig8 in
  let entries =
    [
      single inst 'd' [ read1 inst 'a' 'd' ];
      single inst 'a' [ read1 inst 'd' 'a' ];
      single inst 'u' [ read1 inst 'a' 'u' ];
      single inst 'b' [ read1 inst 'd' 'b' ];
      single inst 'u' [ read1 inst 'b' 'u' ];
      single inst 's' [ read1 inst 'u' 's' ];
      single inst 's' [ read1 inst 'u' 's' ];
    ]
  in
  let rows = run_rows inst entries in
  check_rows "Ex. A.4 R1O realization"
    [
      ("d", "d"); ("a", "ad"); ("u", "uad"); ("b", "bd"); ("u", "ubd");
      ("s", "suad"); ("s", "subd");
    ]
    rows

(* ------------------------------------------------------------------ *)
(* Example A.5: FIG9 under REA *)

let test_fig9_rea_replay () =
  let inst = Gadgets.fig9 in
  let entries = List.map (fun c -> Activation.poll_all (View.spp inst) (Gadgets.node inst c))
      [ 'd'; 'b'; 'c'; 'x'; 's'; 'a'; 'c'; 's' ]
  in
  let rows = run_rows inst entries in
  check_rows "Ex. A.5 REA"
    [
      ("d", "d"); ("b", "bd"); ("c", "cbd"); ("x", "xd"); ("s", "scbd");
      ("a", "ad"); ("c", "cad"); ("s", "sxd");
    ]
    rows

(* ------------------------------------------------------------------ *)
(* Example A.6: multi-node activation *)

let test_disagree_multi_node_oscillation () =
  let inst = Gadgets.disagree in
  let x = Gadgets.node inst 'x' and y = Gadgets.node inst 'y' in
  let both_from_d =
    Activation.entry ~active:[ x; y ]
      ~reads:[ read_all inst 'd' 'x'; read_all inst 'd' 'y' ]
  in
  let both_cross =
    Activation.entry ~active:[ x; y ]
      ~reads:[ read_all inst 'y' 'x'; read_all inst 'x' 'y' ]
  in
  let d_entry = single inst 'd' [ read_all inst 'x' 'd' ] in
  List.iter
    (fun e ->
      Alcotest.(check bool) "R1A-multi validates" true
        (Model.validates_multi (View.spp inst) (model "R1A") e))
    [ both_from_d; both_cross; d_entry ];
  let sched = Scheduler.prefixed [ d_entry ] [ both_from_d; both_cross ] in
  let r = Executor.run ~max_steps:200 inst sched in
  (match r.Executor.stop with
  | Executor.Cycle _ -> ()
  | s -> Alcotest.failf "expected oscillation, got %a" Executor.pp_stop s);
  (* Reproduce the paper's table: pi_x alternates xd / xyd. *)
  let tr = Executor.run_entries inst [ d_entry; both_from_d; both_cross; both_from_d; both_cross ] in
  let pi_x =
    List.map
      (fun a -> Path.to_string ~names:(Instance.names inst) (Assignment.get a x))
      (Trace.assignments tr)
  in
  Alcotest.(check (list string)) "pi_x per step"
    [ "\xCE\xB5"; "xd"; "xyd"; "xyd"; "xd" ] pi_x

(* ------------------------------------------------------------------ *)
(* Executor and schedulers *)

let test_round_robin_validates_everywhere () =
  let instances = [ Gadgets.disagree; Gadgets.fig6; Gadgets.fig7 ] in
  List.iter
    (fun inst ->
      List.iter
        (fun m ->
          let sched = Scheduler.round_robin inst m in
          List.iter
            (fun e ->
              if not (Model.validates (View.spp inst) m e) then
                Alcotest.failf "round-robin %s entry invalid: %a" (Model.to_string m)
                  (Activation.pp inst) e)
            (Scheduler.prefix (Option.get sched.Scheduler.period) sched))
        Model.all)
    instances

let test_round_robin_fair () =
  List.iter
    (fun m ->
      let inst = Gadgets.fig6 in
      let sched = Scheduler.round_robin inst m in
      Alcotest.(check bool)
        ("fair cycle " ^ Model.to_string m)
        true
        (Fairness.cycle_is_fair inst (Scheduler.prefix (Option.get sched.Scheduler.period) sched)))
    Model.all

let test_random_scheduler_validates () =
  List.iter
    (fun m ->
      let inst = Gadgets.fig6 in
      let sched = Scheduler.random inst m ~seed:7 in
      List.iter
        (fun e ->
          if not (Model.validates (View.spp inst) m e) then
            Alcotest.failf "random %s entry invalid: %a" (Model.to_string m)
              (Activation.pp inst) e)
        (Scheduler.prefix 300 sched))
    Model.all

let test_random_scheduler_fairness_report () =
  let inst = Gadgets.fig6 in
  let sched = Scheduler.random inst (model "UMS") ~seed:13 in
  let entries = Scheduler.prefix 2000 sched in
  let r = Fairness.analyze inst entries in
  Alcotest.(check (list (of_pp Fmt.nop))) "no unread channels" [] r.Fairness.unread_channels;
  List.iter
    (fun (_, gap) -> Alcotest.(check bool) "bounded gaps" true (gap <= 200))
    r.Fairness.max_gap

let test_good_gadget_converges_all_models () =
  let inst = Gadgets.good_gadget in
  List.iter
    (fun m ->
      let r = Executor.run ~validate:m inst (Scheduler.round_robin inst m) in
      (match r.Executor.stop with
      | Executor.Converged -> ()
      | s ->
        Alcotest.failf "%s: expected convergence, got %a" (Model.to_string m)
          Executor.pp_stop s);
      Alcotest.(check bool) "stable solution" true
        (Assignment.is_solution inst (State.assignment inst (Trace.final r.Executor.trace))))
    Model.all

let test_bad_gadget_diverges_round_robin () =
  (* BAD GADGET has no solution at all, so no model can reach quiescence. *)
  let inst = Gadgets.bad_gadget in
  List.iter
    (fun name ->
      let m = model name in
      let r = Executor.run ~validate:m ~max_steps:2000 inst (Scheduler.round_robin inst m) in
      match r.Executor.stop with
      | Executor.Converged -> Alcotest.failf "%s: BAD GADGET cannot converge" name
      | Executor.Cycle _ | Executor.Exhausted -> ())
    [ "R1O"; "REO"; "RMS"; "REA"; "RMA" ]

let test_quiescent_state_detection () =
  let inst = Gadgets.good_gadget in
  let m = model "REA" in
  let r = Executor.run ~validate:m inst (Scheduler.round_robin inst m) in
  let final = Trace.final r.Executor.trace in
  Alcotest.(check bool) "final state quiescent" true (State.is_quiescent inst final);
  Alcotest.(check bool) "initial state not quiescent" false
    (State.is_quiescent inst (State.initial inst))

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  n = 0 || loop 0

let test_paper_table_rendering () =
  let inst = Gadgets.fig8 in
  let entries = List.map (fun c -> Activation.poll_all (View.spp inst) (Gadgets.node inst c))
      [ 'd'; 'a'; 'u' ]
  in
  let table = Trace.paper_table (Executor.run_entries inst entries) in
  Alcotest.(check bool) "mentions uad" true (contains_substring table "uad");
  Alcotest.(check bool) "mentions U(t)" true (contains_substring table "U(t)")


(* ------------------------------------------------------------------ *)
(* Channels, export policy, determinism *)

let test_channel_ops () =
  let c = Channel.id ~src:1 ~dst:2 in
  let t = Channel.push_path Channel.empty c (Path.of_nodes [ 1; 0 ]) in
  let t = Channel.push_path t c (Path.of_nodes [ 1; 2; 0 ]) in
  Alcotest.(check int) "length" 2 (Channel.length t c);
  Alcotest.(check int) "total" 2 (Channel.total_messages t);
  Alcotest.(check int) "max occupancy" 2 (Channel.max_occupancy t);
  let t = Channel.drop_first t c 1 in
  Alcotest.(check int) "after drop" 1 (Channel.length t c);
  (match Channel.get_paths t c with
  | [ p ] -> Alcotest.(check bool) "FIFO kept newer" true (Path.equal p (Path.of_nodes [ 1; 2; 0 ]))
  | _ -> Alcotest.fail "unexpected contents");
  Alcotest.(check bool) "ids are hash-consed" true
    (match Channel.get t c with
    | [ i ] -> Spp.Arena.equal i (Spp.Arena.of_nodes [ 1; 2; 0 ])
    | _ -> false);
  let t = Channel.drop_first t c 5 in
  Alcotest.(check int) "over-drop clamps" 0 (Channel.length t c);
  Alcotest.(check bool) "empty map normal form" true (Channel.Map.is_empty t);
  Alcotest.(check bool) "reverse" true
    (Channel.equal_id (Channel.reverse c) (Channel.id ~src:2 ~dst:1))

(* ------------------------------------------------------------------ *)
(* Monomorphic channel keys and allocation-free state equality *)

let prop_compare_id_sign =
  QCheck2.Test.make ~name:"Channel.compare_id has the sign of Stdlib.compare" ~count:500
    QCheck2.Gen.(
      let node = oneof [ int_range (-3) 3; int ] in
      quad node node node node)
    (fun (a, b, c, d) ->
      let x = Channel.id ~src:a ~dst:b and y = Channel.id ~src:c ~dst:d in
      let sign n = Int.compare n 0 in
      sign (Channel.compare_id x y) = sign (Stdlib.compare x y)
      && Channel.equal_id x y = (Stdlib.compare x y = 0))

(* Random mutator sequences over DISAGREE's nodes and channels, with a
   small pool of routes (epsilon included, so bindings get removed too). *)
type mutation =
  | Pi of int * int
  | Rho of int * int
  | Ann of int * int
  | Push of int * int
  | Drop of int * int

let gen_mutations =
  QCheck2.Gen.(
    let op =
      let* k = int_range 0 4 and* a = int_range 0 5 and* b = int_range 0 5 in
      return
        (match k with
        | 0 -> Pi (a, b)
        | 1 -> Rho (a, b)
        | 2 -> Ann (a, b)
        | 3 -> Push (a, b)
        | _ -> Drop (a, b mod 3))
    in
    list_size (int_range 0 25) op)

let apply_mutations inst ops =
  let nodes = Array.of_list (Instance.nodes inst) in
  let chans =
    Array.of_list (List.map (fun (u, v) -> Channel.id ~src:u ~dst:v) (Instance.channels inst))
  in
  let routes =
    Array.of_list
      (Arena.epsilon
      :: List.map (fun (_, p, _) -> Arena.intern p) (Instance.all_permitted inst))
  in
  let node i = nodes.(i mod Array.length nodes)
  and chan i = chans.(i mod Array.length chans)
  and route i = routes.(i mod Array.length routes) in
  List.fold_left
    (fun st -> function
      | Pi (a, b) -> State.with_pi_id st (node a) (route b)
      | Rho (a, b) -> State.with_rho_id st (chan a) (route b)
      | Ann (a, b) -> State.with_announced_id st (node a) (route b)
      | Push (a, b) -> State.push_channel st (chan a) (route b)
      | Drop (a, n) -> State.drop_first_channel st (chan a) n)
    (State.initial inst) ops

(* The same contents as [st], rebuilt in a different order: components in
   reverse, and each queue behind a message that is then dropped. *)
let rebuild inst st =
  let rev_nodes = List.rev (Instance.nodes inst) in
  let rev_chans =
    List.rev_map (fun (u, v) -> Channel.id ~src:u ~dst:v) (Instance.channels inst)
  in
  let s = State.initial inst in
  let s = List.fold_left (fun s v -> State.with_announced_id s v (State.announced_id st v)) s rev_nodes in
  let s = List.fold_left (fun s c -> State.with_rho_id s c (State.rho_id st c)) s rev_chans in
  let s = List.fold_left (fun s v -> State.with_pi_id s v (State.pi_id st v)) s rev_nodes in
  List.fold_left
    (fun s c ->
      match Channel.get (State.channels st) c with
      | [] -> s
      | msgs ->
        let s = State.push_channel s c Arena.epsilon in
        let s = List.fold_left (fun s m -> State.push_channel s c m) s msgs in
        State.drop_first_channel s c 1)
    s rev_chans

let prop_state_equal_is_compare =
  (* [b] is [a] plus at most two more mutations, so near-equal pairs (one
     binding more, one value different, or the same state again) are
     common. *)
  QCheck2.Test.make ~name:"State.equal agrees with State.compare" ~count:500
    QCheck2.Gen.(
      pair gen_mutations (map (List.filteri (fun i _ -> i < 2)) gen_mutations))
    (fun (ops_a, extra) ->
      let inst = Gadgets.disagree in
      let a = apply_mutations inst ops_a in
      let b = apply_mutations inst (ops_a @ extra) in
      let a' = rebuild inst a in
      let agree x y = State.equal x y = (State.compare x y = 0) in
      agree a b && agree b a && agree a' b && agree b a'
      && State.equal a a' && State.equal a' a
      && State.digest a = State.digest a')

let test_export_policy_withdraw_substitution () =
  (* A path filtered by export policy is delivered as a withdrawal, so the
     neighbor's knowledge stays sound. *)
  let inst = Gadgets.disagree in
  let d = Gadgets.node inst 'd' and x = Gadgets.node inst 'x' and y = Gadgets.node inst 'y' in
  (* x may not announce to y at all. *)
  let export ~src ~dst _ = not (src = x && dst = y) in
  let entries =
    [
      single inst 'd' [ read1 inst 'x' 'd' ];
      single inst 'x' [ read1 inst 'd' 'x' ];
      single inst 'y' [ read1 inst 'd' 'y' ];
      single inst 'y' [ read1 inst 'x' 'y' ];
    ]
  in
  let tr = Executor.run_entries ~export inst entries in
  let final = Trace.final tr in
  ignore d;
  (* y never learns x's route, so it keeps the direct one. *)
  Alcotest.(check string) "y stays direct" "yd"
    (Path.to_string ~names:(Instance.names inst) (State.pi final y));
  Alcotest.(check bool) "rho from x empty" true
    (Path.is_epsilon (State.rho final (chan inst 'x' 'y')))

let test_step_deterministic () =
  let inst = Gadgets.fig6 in
  let entries = Scheduler.prefix 40 (Scheduler.random inst (model "UMS") ~seed:99) in
  let t1 = Executor.run_entries inst entries and t2 = Executor.run_entries inst entries in
  Alcotest.(check bool) "same final state" true
    (State.equal (Trace.final t1) (Trace.final t2))

let test_scheduler_period_covers_channels () =
  List.iter
    (fun m ->
      let inst = Gadgets.fig6 in
      let sched = Scheduler.round_robin inst m in
      let cycle = Scheduler.prefix (Option.get sched.Scheduler.period) sched in
      let tracked =
        List.filter (fun (_, dst) -> dst <> Instance.dest inst) (Instance.channels inst)
      in
      let read_chans =
        List.concat_map
          (fun (e : Activation.t) ->
            List.map (fun (r : Activation.read) -> (r.Activation.chan.Channel.src, r.Activation.chan.Channel.dst)) e.Activation.reads)
          cycle
      in
      List.iter
        (fun c ->
          if not (List.mem c read_chans) then
            Alcotest.failf "%s: channel unread in one period" (Model.to_string m))
        tracked)
    Model.all

let test_trace_assignments_lengths () =
  let inst = Gadgets.disagree in
  let entries = disagree_r1o_prefix inst in
  let tr = Executor.run_entries inst entries in
  Alcotest.(check int) "no initial" 3 (List.length (Trace.assignments tr));
  Alcotest.(check int) "with initial" 4
    (List.length (Trace.assignments ~include_initial:true tr));
  Alcotest.(check int) "rows" 3 (List.length (Trace.active_rows tr))

let test_executor_max_steps () =
  let inst = Gadgets.disagree in
  let sched = Scheduler.round_robin inst (model "R1O") in
  let r = Executor.run ~max_steps:2 inst sched in
  Alcotest.(check bool) "exhausted at limit" true
    (match r.Executor.stop with Executor.Exhausted -> true | _ -> false);
  Alcotest.(check int) "trace truncated" 2 (Trace.length r.Executor.trace)

let test_fairness_analyze_gaps () =
  let inst = Gadgets.disagree in
  let entries = disagree_r1o_prefix inst @ disagree_r1o_cycle inst in
  let report = Fairness.analyze inst entries in
  Alcotest.(check (list (of_pp Fmt.nop))) "all channels read" []
    report.Fairness.unread_channels;
  List.iter
    (fun (_, gap) -> Alcotest.(check bool) "gap bounded" true (gap <= List.length entries))
    report.Fairness.max_gap

let test_unfair_cycle_detected () =
  let inst = Gadgets.disagree in
  (* A cycle that never reads (y,x) is unfair. *)
  let cycle = [ single inst 'x' [ read1 inst 'd' 'x' ]; single inst 'y' [ read1 inst 'x' 'y' ]; single inst 'y' [ read1 inst 'd' 'y' ]; single inst 'd' [ read1 inst 'x' 'd' ] ] in
  Alcotest.(check bool) "unfair" false (Fairness.cycle_is_fair inst cycle)

let test_empty_cycle_rejected () =
  let expect_invalid name f =
    match f () with
    | (_ : Scheduler.t) -> Alcotest.failf "%s: empty cycle accepted" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "cycle" (fun () -> Scheduler.cycle []);
  let inst = Gadgets.disagree in
  let pre = Scheduler.prefix 3 (Scheduler.round_robin inst (model "RMS")) in
  expect_invalid "prefixed" (fun () -> Scheduler.prefixed pre [])

let test_trace_indices_sequential () =
  let inst = Gadgets.disagree in
  let entries = Scheduler.prefix 12 (Scheduler.round_robin inst (model "R1O")) in
  let tr = Executor.run_entries inst entries in
  let steps = Trace.steps tr in
  Alcotest.(check int) "all steps recorded" 12 (List.length steps);
  List.iteri
    (fun i (s : Trace.step) -> Alcotest.(check int) "step index" (i + 1) s.Trace.index)
    steps

(* ------------------------------------------------------------------ *)
(* Streaming executor: same loop as [run], no trace retention *)

let stop_t = Alcotest.testable Executor.pp_stop ( = )

let test_streaming_matches_run_quiescent () =
  List.iter
    (fun name ->
      let m = model name in
      let inst = Gadgets.disagree in
      let r = Executor.run ~validate:m inst (Scheduler.round_robin inst m) in
      let seen = ref [] in
      let s =
        Executor.run_streaming ~validate:m
          ~on_step:(fun (st : Trace.step) -> seen := st.Trace.index :: !seen)
          inst (Scheduler.round_robin inst m)
      in
      Alcotest.check stop_t (name ^ " stop") r.Executor.stop s.Executor.stop;
      Alcotest.(check int) (name ^ " steps") (Trace.length r.Executor.trace)
        s.Executor.steps;
      Alcotest.(check bool) (name ^ " final state") true
        (State.equal (Trace.final r.Executor.trace) s.Executor.final);
      Alcotest.(check (list int)) (name ^ " on_step saw every step")
        (List.map (fun (st : Trace.step) -> st.Trace.index) (Trace.steps r.Executor.trace))
        (List.rev !seen))
    [ "R1O"; "RMS"; "REA"; "UMS" ]

let test_streaming_detects_cycle () =
  let inst = Gadgets.disagree in
  let sched () = Scheduler.prefixed (disagree_r1o_prefix inst) (disagree_r1o_cycle inst) in
  let r = Executor.run ~validate:(model "R1O") ~max_steps:500 inst (sched ()) in
  let s = Executor.run_streaming ~validate:(model "R1O") ~max_steps:500 inst (sched ()) in
  (match r.Executor.stop with
  | Executor.Cycle _ -> ()
  | st -> Alcotest.failf "expected a cycle, got %a" Executor.pp_stop st);
  Alcotest.check stop_t "same cycle" r.Executor.stop s.Executor.stop;
  Alcotest.(check bool) "same final state" true
    (State.equal (Trace.final r.Executor.trace) s.Executor.final)

let test_streaming_max_steps () =
  let inst = Gadgets.disagree in
  let sched = Scheduler.round_robin inst (model "R1O") in
  let s = Executor.run_streaming ~max_steps:2 inst sched in
  Alcotest.check stop_t "exhausted" Executor.Exhausted s.Executor.stop;
  Alcotest.(check int) "stopped at the limit" 2 s.Executor.steps

(* ------------------------------------------------------------------ *)
(* Worker pool *)

let test_pool_runs_every_index () =
  let pool = Pool.get () in
  let hits = Array.make 6 0 in
  Pool.run pool ~workers:6 (fun i -> hits.(i) <- hits.(i) + 1);
  Array.iteri
    (fun i n -> Alcotest.(check int) (Printf.sprintf "index %d ran once" i) 1 n)
    hits

exception Boom

let test_pool_propagates_exception () =
  let pool = Pool.get () in
  let others_done = Atomic.make 0 in
  (match Pool.run pool ~workers:4 (fun i -> if i = 2 then raise Boom else Atomic.incr others_done) with
  | () -> Alcotest.fail "worker exception was swallowed"
  | exception Boom -> ());
  Alcotest.(check int) "other instances still completed" 3 (Atomic.get others_done);
  (* The pool survives a failed run. *)
  Pool.run pool ~workers:2 ignore

let test_pool_concurrent_runs () =
  (* Three domains race [Pool.run] on the same pool (and thus the same
     parked workers).  The assign-side wakeup must be a broadcast: with a
     single signal, a waiting assigner can consume the wakeup meant for
     the parked worker and both runs deadlock with the job slot full. *)
  let pool = Pool.get () in
  let total = Atomic.make 0 in
  let one_run () = Pool.run pool ~workers:3 (fun _ -> Atomic.incr total) in
  let d1 = Domain.spawn one_run and d2 = Domain.spawn one_run in
  one_run ();
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check int) "every instance of every run executed" 9 (Atomic.get total)

let test_pool_reentrant_run_is_inline () =
  let pool = Pool.get () in
  let inner = Atomic.make 0 in
  Pool.run pool ~workers:2 (fun _ ->
      (* A job calling [run] again must not deadlock on pool mailboxes. *)
      Pool.run pool ~workers:3 (fun _ -> Atomic.incr inner));
  Alcotest.(check int) "both jobs ran their inner instances" 6 (Atomic.get inner)

let test_pool_map_order_and_once () =
  let n = 50 in
  let calls = Array.init n (fun _ -> Atomic.make 0) in
  let out =
    Pool.map (Pool.get ()) ~workers:4
      (fun i ->
        Atomic.incr calls.(i);
        i * i)
      (Array.init n Fun.id)
  in
  Alcotest.(check (array int)) "order kept" (Array.init n (fun i -> i * i)) out;
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "item %d ran once" i) 1 (Atomic.get c))
    calls

let test_pool_map_clamps_workers () =
  let pool = Pool.get () in
  let before = Pool.size pool in
  let out = Pool.map pool ~workers:40 succ [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "results" [| 2; 3; 4 |] out;
  Alcotest.(check bool) "at most two pool domains for three items" true
    (Pool.size pool <= max before 2);
  Alcotest.(check (array int)) "no items" [||] (Pool.map pool ~workers:40 succ [||])

let test_pool_map_one_worker_inline () =
  let pool = Pool.get () in
  let runs = (Pool.stats pool).Pool.runs in
  let self = (Domain.self () :> int) in
  let seen = ref [] in
  let out =
    Pool.map pool ~workers:1
      (fun i ->
        seen := (i, (Domain.self () :> int)) :: !seen;
        -i)
      [| 0; 1; 2 |]
  in
  Alcotest.(check (array int)) "results" [| 0; -1; -2 |] out;
  Alcotest.(check (list (pair int int)))
    "in order, on the calling domain"
    [ (0, self); (1, self); (2, self) ]
    (List.rev !seen);
  Alcotest.(check int) "no parallel region" runs (Pool.stats pool).Pool.runs

let test_pool_map_raise_after_all () =
  let finished = Atomic.make 0 in
  (match
     Pool.map (Pool.get ()) ~workers:3
       (fun i ->
         if i = 0 then raise Boom;
         Unix.sleepf 0.005;
         Atomic.incr finished)
       (Array.init 9 Fun.id)
   with
  | _ -> Alcotest.fail "the raise was swallowed"
  | exception Boom -> ());
  Alcotest.(check int) "every other item finished before the re-raise" 8 (Atomic.get finished)

let test_domains_auto_env () =
  let saved = Sys.getenv_opt "DOMAINS" in
  let restore () =
    match saved with
    | Some v -> Unix.putenv "DOMAINS" v
    | None -> Unix.putenv "DOMAINS" ""
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "DOMAINS" "auto";
      Alcotest.(check int) "DOMAINS=auto" (Modelcheck.Explore.auto_domains ())
        (Modelcheck.Explore.default_domains ());
      Unix.putenv "DOMAINS" " AUTO ";
      Alcotest.(check int) "DOMAINS is trimmed, case-insensitive"
        (Modelcheck.Explore.auto_domains ())
        (Modelcheck.Explore.default_domains ());
      Unix.putenv "DOMAINS" "3";
      Alcotest.(check int) "DOMAINS=3" 3 (Modelcheck.Explore.default_domains ());
      Unix.putenv "DOMAINS" "bogus";
      Alcotest.(check int) "unparseable falls back to 1" 1
        (Modelcheck.Explore.default_domains ()))

let () =
  Alcotest.run "engine"
    [
      ( "model",
        [
          Alcotest.test_case "roundtrip" `Quick test_model_roundtrip;
          Alcotest.test_case "families" `Quick test_model_families;
          Alcotest.test_case "syntactic inclusion" `Quick test_model_includes;
          Alcotest.test_case "entry validation" `Quick test_model_validation;
          Alcotest.test_case "well-formedness" `Quick test_activation_well_formed;
        ] );
      ( "step",
        [
          Alcotest.test_case "initial announcement" `Quick test_step_initial_announce;
          Alcotest.test_case "min(f, m) processing" `Quick test_step_min_count;
          Alcotest.test_case "FIFO keeps last" `Quick test_step_fifo_last_kept;
          Alcotest.test_case "drop semantics" `Quick test_step_drop_semantics;
          Alcotest.test_case "drop in the middle" `Quick test_step_drop_middle;
          Alcotest.test_case "withdrawals" `Quick test_step_withdrawal;
        ] );
      ( "example-a1",
        [
          Alcotest.test_case "R1O oscillation" `Quick test_disagree_r1o_oscillates;
          Alcotest.test_case "oscillation cycle is fair" `Quick test_disagree_r1o_cycle_fair;
          Alcotest.test_case "strong models converge" `Quick
            test_disagree_converges_in_strong_models;
        ] );
      ( "example-a2",
        [
          Alcotest.test_case "REO 13-step replay" `Quick test_fig6_reo_replay;
          Alcotest.test_case "entries validate in REO" `Quick test_fig6_reo_entries_validate;
          Alcotest.test_case "REO oscillation" `Quick test_fig6_reo_oscillates;
          Alcotest.test_case "polling models converge" `Quick
            test_fig6_converges_in_polling_models;
        ] );
      ( "example-a3",
        [
          Alcotest.test_case "REO replay" `Quick test_fig7_reo_replay;
          Alcotest.test_case "R1O divergent tail" `Quick test_fig7_r1o_replay;
        ] );
      ( "example-a4",
        [
          Alcotest.test_case "REA replay" `Quick test_fig8_rea_replay;
          Alcotest.test_case "R1O subsequence realization" `Quick
            test_fig8_r1o_subsequence_insertion;
        ] );
      ("example-a5", [ Alcotest.test_case "REA replay" `Quick test_fig9_rea_replay ]);
      ( "example-a6",
        [ Alcotest.test_case "multi-node oscillation" `Quick test_disagree_multi_node_oscillation ] );
      ( "executor",
        [
          Alcotest.test_case "round-robin validates" `Quick test_round_robin_validates_everywhere;
          Alcotest.test_case "round-robin fair" `Quick test_round_robin_fair;
          Alcotest.test_case "random scheduler validates" `Quick test_random_scheduler_validates;
          Alcotest.test_case "random scheduler fair-ish" `Quick
            test_random_scheduler_fairness_report;
          Alcotest.test_case "GOOD GADGET converges in all 24 models" `Quick
            test_good_gadget_converges_all_models;
          Alcotest.test_case "BAD GADGET never converges" `Quick
            test_bad_gadget_diverges_round_robin;
          Alcotest.test_case "quiescence detection" `Quick test_quiescent_state_detection;
          Alcotest.test_case "paper table rendering" `Quick test_paper_table_rendering;
        ] );
      ( "details",
        [
          Alcotest.test_case "channel operations" `Quick test_channel_ops;
          Alcotest.test_case "export filtering withdraws" `Quick
            test_export_policy_withdraw_substitution;
          Alcotest.test_case "determinism" `Quick test_step_deterministic;
          Alcotest.test_case "round-robin covers channels" `Quick
            test_scheduler_period_covers_channels;
          Alcotest.test_case "trace lengths" `Quick test_trace_assignments_lengths;
          Alcotest.test_case "max-steps exhaustion" `Quick test_executor_max_steps;
          Alcotest.test_case "fairness gaps" `Quick test_fairness_analyze_gaps;
          Alcotest.test_case "unfair cycle detected" `Quick test_unfair_cycle_detected;
          Alcotest.test_case "empty cycle rejected" `Quick test_empty_cycle_rejected;
          Alcotest.test_case "trace indices are 1..n" `Quick test_trace_indices_sequential;
          QCheck_alcotest.to_alcotest prop_compare_id_sign;
          QCheck_alcotest.to_alcotest prop_state_equal_is_compare;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "matches run on convergent schedules" `Quick
            test_streaming_matches_run_quiescent;
          Alcotest.test_case "detects the same cycles" `Quick test_streaming_detects_cycle;
          Alcotest.test_case "max-steps exhaustion" `Quick test_streaming_max_steps;
        ] );
      ( "pool",
        [
          Alcotest.test_case "runs every index" `Quick test_pool_runs_every_index;
          Alcotest.test_case "propagates exceptions" `Quick test_pool_propagates_exception;
          Alcotest.test_case "concurrent runs are safe" `Quick test_pool_concurrent_runs;
          Alcotest.test_case "re-entrant run is inline" `Quick
            test_pool_reentrant_run_is_inline;
          Alcotest.test_case "map keeps order, runs each item once" `Quick
            test_pool_map_order_and_once;
          Alcotest.test_case "map clamps workers to the items" `Quick
            test_pool_map_clamps_workers;
          Alcotest.test_case "map with one worker is inline" `Quick
            test_pool_map_one_worker_inline;
          Alcotest.test_case "map re-raises after every worker" `Quick
            test_pool_map_raise_after_all;
          Alcotest.test_case "DOMAINS=auto parsing" `Quick test_domains_auto_env;
        ] );
    ]

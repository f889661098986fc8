(* Tests for the bounded model checker: canonical entry enumeration,
   exhaustive oscillation/convergence verdicts on the paper's gadgets, and
   executor replay of every oscillation witness. *)

open Spp
open Engine
open Modelcheck

let model s =
  match Model.of_string s with Some m -> m | None -> Alcotest.failf "bad model %s" s

(* ------------------------------------------------------------------ *)
(* Enumerate *)

let test_enumerate_counts () =
  let inst = Gadgets.disagree in
  let st = State.initial inst in
  (* Initial state: all channels empty.  REA: one full poll per node. *)
  let rea = Enumerate.successors inst (model "REA") st in
  Alcotest.(check int) "REA: one entry per node" 3 (List.length rea);
  (* R1O: one entry per (node, channel); x and y have 2 channels each, and
     the destination contributes its single no-op activation. *)
  let r1o = Enumerate.successors inst (model "R1O") st in
  Alcotest.(check int) "R1O count" 5 (List.length r1o);
  List.iter
    (fun (l : Enumerate.labeled) ->
      Alcotest.(check bool) "validates" true
        (Model.validates (View.spp inst) (model "R1O") l.Enumerate.entry))
    r1o

let test_enumerate_drop_variants () =
  (* After d announces, channel (d,x) has one message: U1O at x offers a
     clean read and an all-dropped read. *)
  let inst = Gadgets.disagree in
  let d = Gadgets.node inst 'd' in
  let o = Step.apply inst (State.initial inst) (Activation.poll_all (View.spp inst) d) in
  let st = o.Step.state in
  let u1o = Enumerate.successors inst (model "U1O") st in
  let x = Gadgets.node inst 'x' in
  let reads_dx (l : Enumerate.labeled) =
    List.exists
      (fun (c : Channel.id) -> c.Channel.src = d && c.Channel.dst = x)
      l.Enumerate.reads
  in
  let variants = List.filter reads_dx u1o in
  Alcotest.(check int) "clean + dropped" 2 (List.length variants);
  Alcotest.(check bool) "one drops" true
    (List.exists (fun (l : Enumerate.labeled) -> l.Enumerate.drops <> []) variants);
  Alcotest.(check bool) "one cleans" true
    (List.exists (fun (l : Enumerate.labeled) -> l.Enumerate.cleans <> []) variants)

let test_enumerate_entries_validate () =
  let inst = Gadgets.disagree in
  let d = Gadgets.node inst 'd' in
  let o = Step.apply inst (State.initial inst) (Activation.poll_all (View.spp inst) d) in
  let st = o.Step.state in
  List.iter
    (fun m ->
      List.iter
        (fun (l : Enumerate.labeled) ->
          if not (Model.validates (View.spp inst) m l.Enumerate.entry) then
            Alcotest.failf "%s: invalid canonical entry %a" (Model.to_string m)
              (Activation.pp inst) l.Enumerate.entry)
        (Enumerate.successors inst m st))
    Model.all

(* ------------------------------------------------------------------ *)
(* The memoised enumerator *)

let models = Array.of_list Model.all

(* A generated instance, a model per node (one model everywhere unless
   [hetero]) and a queue length per channel, up to 5 — past the default
   channel bound of 4.  At most 4 nodes keep the per-node entry products
   small. *)
let gen_memo_case =
  QCheck2.Gen.(
    let* seed = int_range 0 9_999 in
    let* nodes = int_range 2 4 in
    let* hetero = bool in
    let* model_ix = list_size (return nodes) (int_range 0 (Array.length models - 1)) in
    let* lens = list_size (int_range 2 8) (list_size (return (nodes * nodes)) (int_range 0 5)) in
    return (seed, nodes, hetero, model_ix, lens))

(* The instance, the per-node models and one length function per generated
   length vector. *)
let memo_inputs (seed, nodes, hetero, model_ix, lens) =
  let inst =
    Generator.instance { Generator.default with nodes; seed; extra_edges = 1; max_paths_per_node = 2 }
  in
  let model_ix = Array.of_list model_ix in
  let model_of v = models.(if hetero then model_ix.(v) else model_ix.(0)) in
  let length lens =
    let lens = Array.of_list lens in
    fun (c : Channel.id) -> lens.((c.Channel.src * nodes) + c.Channel.dst)
  in
  (inst, model_of, List.map length lens)

let direct inst model_of length =
  Enumerate.successors_core ~nodes:(Instance.nodes inst)
    ~required:((View.spp inst).required) ~length ~model_of

let groups_of inst model_of =
  Enumerate.memo ~nodes:(Instance.nodes inst) ~required:((View.spp inst).required)
    ~model_of ()

let memo_of inst model_of =
  let groups = groups_of inst model_of in
  fun length -> Enumerate.labels (groups length)

(* The effect rule, stated on entries: two labels of one node have one
   effect when their entries agree once every read that processes no
   message is removed and every drop past the processed count is
   ignored. *)
let same_effect length (a : Enumerate.labeled) (b : Enumerate.labeled) =
  let processed (r : Activation.read) =
    let m = length r.Activation.chan in
    match r.Activation.count with Activation.All -> m | Activation.Finite f -> min f m
  in
  let effective (l : Enumerate.labeled) =
    List.filter (fun r -> processed r > 0) l.Enumerate.entry.Activation.reads
  in
  let same_read (r : Activation.read) (s : Activation.read) =
    let i = processed r in
    Channel.equal_id r.Activation.chan s.Activation.chan
    && i = processed s
    && Activation.IntSet.equal
         (Activation.IntSet.filter (fun j -> j <= i) r.Activation.drops)
         (Activation.IntSet.filter (fun j -> j <= i) s.Activation.drops)
  in
  List.equal same_read (effective a) (effective b)

(* [rep.(k)] is the first index whose label has label [k]'s effect. *)
let rep_agrees length (g : Enumerate.group) =
  let labels = Array.of_list g.Enumerate.labels in
  Array.length g.Enumerate.rep = Array.length labels
  && Array.for_all Fun.id
       (Array.mapi
          (fun k l ->
            let rec first j = if same_effect length labels.(j) l then j else first (j + 1) in
            g.Enumerate.rep.(k) = first 0)
          labels)

let prop_memo_parity =
  QCheck2.Test.make ~name:"memoised enumeration equals successors_core" ~count:200
    gen_memo_case (fun case ->
      let inst, model_of, lengths = memo_inputs case in
      let groups = groups_of inst model_of in
      let first = List.map groups lengths in
      let second = List.map groups lengths in
      List.for_all2
        (fun length (a, b) ->
          let expected = direct inst model_of length in
          Enumerate.labels a = expected
          && Enumerate.labels b = expected
          && List.for_all (rep_agrees length) a
          (* The second pass is all hits: the very same groups. *)
          && List.for_all2 ( == ) a b)
        lengths (List.combine first second))

let prop_memo_every_model =
  (* Every one of the 24 models on one generated instance, over the
     lengths a random schedule actually reaches (through the SPP state
     adapter [successors]), against the direct enumeration. *)
  QCheck2.Test.make ~name:"memo parity on reached states, 24 models" ~count:10
    QCheck2.Gen.(pair (int_range 0 9_999) (int_range 1 30))
    (fun (seed, steps) ->
      let inst =
        Generator.instance
          { Generator.default with nodes = 4; seed; extra_edges = 1; max_paths_per_node = 2 }
      in
      List.for_all
        (fun m ->
          let succ = Enumerate.successors inst m in
          let states =
            List.fold_left
              (fun acc e -> (Step.apply inst (List.hd acc) e).Step.state :: acc)
              [ State.initial inst ]
              (Scheduler.prefix steps (Scheduler.random inst m ~seed))
          in
          List.for_all
            (fun st ->
              succ st = direct inst (fun _ -> m) (Channel.length (State.channels st)))
            (List.rev states))
        Model.all)

let test_memo_two_domains () =
  (* Two domains hammer one memo with the same keys in opposite orders;
     every answer must equal the direct enumeration. *)
  let inst = Gadgets.fig6 in
  let model_of v = List.nth Model.all (v * 5 mod 24) in
  let memo = memo_of inst model_of in
  let keys =
    List.init 200 (fun k (c : Channel.id) -> (k + (3 * c.Channel.src) + c.Channel.dst) mod 4)
  in
  let run keys = List.map (fun length -> memo length) keys in
  let other = Domain.spawn (fun () -> run (List.rev keys)) in
  let mine = run keys in
  let theirs = List.rev (Domain.join other) in
  List.iter2
    (fun length (a, b) ->
      let expected = direct inst model_of length in
      if a <> expected || b <> expected then Alcotest.fail "memo answer differs across domains")
    keys (List.combine mine theirs)

let test_fig6_work_counts () =
  (* The deep FIG6 cases of the benchmark, pinned by deterministic work
     counts: per-state re-enumeration would make [enumerations] as large as
     the state count. *)
  List.iter
    (fun (name, edges) ->
      let metrics = Metrics.create () in
      let g = Explore.explore ~domains:1 ~metrics Gadgets.fig6 (model name) in
      Alcotest.(check int) (name ^ " states") 7385 (Array.length g.Explore.states);
      Alcotest.(check int) (name ^ " edges") edges (Metrics.edges metrics);
      let e = Metrics.enumerations metrics in
      if e < 1 || e * 100 > edges then
        Alcotest.failf "%s: %d enumerations for %d edges" name e edges)
    [ ("R1A", 118_160); ("RMA", 391_405) ]

(* ------------------------------------------------------------------ *)
(* The step kernel *)

(* [Step.next] against the reference pipeline it replaces: the recorded
   step, then the whole-state collapse and projection.  Parents are the
   states of a normalized random walk (the explorers' invariant), and
   every canonical entry at each of them is checked, plus the schedule's
   own entry; the unprojected kernel must be [Step.apply]'s state. *)
let kernel_agrees inst m st (entry : Activation.t) =
  let collapse = Explore.collapses m in
  let o = Step.apply ~check:false inst st entry in
  let n = Step.next ~project:true ~collapse inst st entry in
  let raw = Step.next ~project:false ~collapse:false inst st entry in
  State.equal n.Step.after
    (Explore.project_state inst (Explore.collapse_state m o.Step.state))
  && State.equal raw.Step.after o.Step.state
  && n.Step.pushes = (o.Step.pushed <> [])
  && n.Step.consumes = List.exists (fun (_, i) -> i > 0) o.Step.processed
  && raw.Step.pushes = n.Step.pushes
  && raw.Step.consumes = n.Step.consumes
  && State.debug_occupancy_ok n.Step.after

let prop_kernel_parity =
  QCheck2.Test.make ~name:"Step.next = project (collapse (Step.apply)), 24 models"
    ~count:40
    QCheck2.Gen.(pair (int_range 0 9_999) (int_range 1 25))
    (fun (seed, steps) ->
      let inst =
        Generator.instance
          { Generator.default with nodes = 4; seed; extra_edges = 1; max_paths_per_node = 2 }
      in
      List.for_all
        (fun m ->
          let succ = Enumerate.successors inst m in
          let normalize st =
            Explore.project_state inst (Explore.collapse_state m st)
          in
          let rec walk st = function
            | [] -> true
            | e :: rest ->
              List.for_all
                (fun (l : Enumerate.labeled) -> kernel_agrees inst m st l.Enumerate.entry)
                (succ st)
              && kernel_agrees inst m st e
              && walk (normalize (Step.apply inst st e).Step.state) rest
          in
          walk (State.initial inst) (Scheduler.prefix steps (Scheduler.random inst m ~seed)))
        Model.all)

(* What the effect groups rely on: a read that processes no message (of an
   empty channel, or [Finite 0]) changes nothing.  At reachable FIG6 and
   BAD-GADGET states, every canonical entry steps as the entry stripped of
   such reads and as that entry padded with such reads of every other
   in-channel of its node: the same state, [pushes] and [consumes]. *)
let prop_zero_reads_noop =
  QCheck2.Test.make ~name:"zero-processing reads leave Step.next unchanged" ~count:30
    QCheck2.Gen.(
      quad bool (int_range 0 (Array.length models - 1)) (int_range 0 9_999) (int_range 1 40))
    (fun (fig6, mi, seed, steps) ->
      let inst = if fig6 then Gadgets.fig6 else Gadgets.bad_gadget in
      let m = models.(mi) in
      let collapse = Explore.collapses m in
      let normalize st = Explore.project_state inst (Explore.collapse_state m st) in
      let succ = Enumerate.successors inst m in
      let same_step st (a : Activation.t) (b : Activation.t) =
        List.for_all
          (fun (project, collapse) ->
            let x = Step.next ~project ~collapse inst st a
            and y = Step.next ~project ~collapse inst st b in
            State.equal x.Step.after y.Step.after
            && x.Step.pushes = y.Step.pushes
            && x.Step.consumes = y.Step.consumes)
          [ (true, collapse); (false, false) ]
      in
      let zero_reads st (entry : Activation.t) =
        let length c = State.queue_length st c in
        let processes (r : Activation.read) =
          match r.Activation.count with
          | Activation.All -> length r.Activation.chan > 0
          | Activation.Finite f -> f > 0 && length r.Activation.chan > 0
        in
        let stripped = List.filter processes entry.Activation.reads in
        let padding =
          List.concat_map
            (fun v ->
              List.filter
                (fun c ->
                  not
                    (List.exists
                       (fun (r : Activation.read) -> Channel.equal_id r.Activation.chan c)
                       stripped))
                ((View.spp inst).required v)
              |> List.mapi (fun k c ->
                     if length c > 0 then Activation.read ~count:(Activation.Finite 0) c
                     else
                       Activation.read
                         ~count:
                           (match (k + seed) mod 3 with
                           | 0 -> Activation.All
                           | 1 -> Activation.Finite 1
                           | _ -> Activation.Finite 0)
                         c))
            entry.Activation.active
        in
        ( { entry with Activation.reads = stripped },
          { entry with Activation.reads = stripped @ padding } )
      in
      let rec walk st = function
        | [] -> true
        | e :: rest ->
          List.for_all
            (fun (l : Enumerate.labeled) ->
              let stripped, padded = zero_reads st l.Enumerate.entry in
              same_step st l.Enumerate.entry stripped && same_step st stripped padded)
            (succ st)
          && walk (normalize (Step.apply inst st e).Step.state) rest
      in
      walk (State.initial inst) (Scheduler.prefix steps (Scheduler.random inst m ~seed)))

let normal_form inst m st =
  State.equal (Explore.project_state inst st) st
  && State.equal (Explore.collapse_state m st) st

let all_normal inst m (g : Explore.graph) =
  Array.for_all (normal_form inst m) g.Explore.states

(* The invariant the kernel relies on: every explored state is a fixpoint
   of both whole-state functions. *)
let prop_graph_normal =
  QCheck2.Test.make ~name:"explored states are projection/collapse fixpoints" ~count:6
    QCheck2.Gen.(int_range 0 9_999)
    (fun seed ->
      let inst =
        Generator.instance
          { Generator.default with nodes = 4; seed; extra_edges = 1; max_paths_per_node = 2 }
      in
      let config = { Explore.channel_bound = 3; max_states = 1_500 } in
      List.for_all
        (fun m -> all_normal inst m (Explore.explore ~config ~domains:1 inst m))
        Model.all)

exception Killed

(* The same invariant for states that do not come out of the kernel:
   states resumed from a checkpoint. *)
let test_normal_resume () =
  let config = { Explore.channel_bound = 3; max_states = 600 } in
  let inst = Gadgets.fig6 in
  List.iter
    (fun name ->
      let m = model name in
      let path =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "commrouting-kernel-%s-%d.snap" name (Unix.getpid ()))
      in
      let successors = Enumerate.groups inst m in
      let collapse = Explore.collapses m in
      let calls = ref 0 in
      let killing st =
        incr calls;
        if !calls > 40 then raise Killed else successors st
      in
      (match
         Explore.explore_with ~config ~checkpoint:{ Explore.path; every = 10 } inst
           ~successors:killing ~collapse
       with
      | (_ : Explore.compact) -> Alcotest.failf "%s: not interrupted" name
      | exception Killed -> ());
      let resume =
        match Snapshot.load ~path inst with
        | Ok s -> s
        | Error e -> Alcotest.failf "%s: %s" name (Snapshot.error_to_string e)
      in
      Sys.remove path;
      if not (Array.for_all (normal_form inst m) resume.Snapshot.states) then
        Alcotest.failf "%s: saved state not normal" name;
      let g = Explore.view (Explore.explore_with ~config ~resume inst ~successors ~collapse) in
      if not (all_normal inst m g) then Alcotest.failf "%s: resumed state not normal" name;
      let direct = Explore.explore ~config ~domains:1 inst m in
      Alcotest.(check int) (name ^ " resumed states") (Array.length direct.Explore.states)
        (Array.length g.Explore.states))
    [ "R1A"; "RMA"; "REO"; "UMS" ]

(* ------------------------------------------------------------------ *)
(* DISAGREE: the full 24-model sweep (Ex. A.1 and beyond) *)

let disagree_expected =
  (* Per the paper, DISAGREE cannot oscillate in REO, REF, R1A, RMA, REA;
     the model checker additionally proves the unreliable E-variants
     convergent (a refinement, recorded in EXPERIMENTS.md). *)
  [ "REO"; "REF"; "R1A"; "RMA"; "REA"; "UEO"; "UEF"; "U1A"; "UMA"; "UEA" ]

let test_disagree_sweep () =
  let inst = Gadgets.disagree in
  List.iter
    (fun m ->
      let name = Model.to_string m in
      let expected_converges = List.mem name disagree_expected in
      match Oscillation.analyze inst m with
      | Oscillation.Converges ->
        if not expected_converges then Alcotest.failf "%s: expected oscillation" name
      | Oscillation.Oscillates w ->
        if expected_converges then Alcotest.failf "%s: expected convergence" name;
        Alcotest.(check bool) (name ^ " witness replays") true
          (Oscillation.verify_witness inst m w)
      | Oscillation.Unknown r -> Alcotest.failf "%s: unknown (%s)" name r)
    Model.all

(* ------------------------------------------------------------------ *)
(* FIG6 (Ex. A.2): polling models provably converge *)

let test_fig6_rea_converges () =
  match Oscillation.analyze Gadgets.fig6 (model "REA") with
  | Oscillation.Converges -> ()
  | v -> Alcotest.failf "expected convergence, got %a" Oscillation.pp_verdict v

(* ------------------------------------------------------------------ *)
(* BAD GADGET: no solution, so every model oscillates *)

let test_bad_gadget_oscillates () =
  let inst = Gadgets.bad_gadget in
  List.iter
    (fun name ->
      let m = model name in
      match Oscillation.analyze inst m with
      | Oscillation.Oscillates w ->
        Alcotest.(check bool) (name ^ " witness replays") true
          (Oscillation.verify_witness inst m w)
      | v -> Alcotest.failf "%s: expected oscillation, got %a" name Oscillation.pp_verdict v)
    [ "REA"; "REO"; "U1A" ]

(* ------------------------------------------------------------------ *)
(* GOOD GADGET and safe instances: convergence everywhere *)

let test_good_gadget_converges () =
  let inst = Gadgets.good_gadget in
  List.iter
    (fun name ->
      match Oscillation.analyze inst (model name) with
      | Oscillation.Converges -> ()
      | v -> Alcotest.failf "%s: expected convergence, got %a" name Oscillation.pp_verdict v)
    [ "R1O"; "REA"; "UMS"; "U1O" ]

let test_safe_random_instances_converge () =
  (* Dispute-wheel-free instances converge in every model (Griffin et al.);
     spot-check small random safe instances under R1O. *)
  List.iter
    (fun seed ->
      let cfg = { Generator.default with nodes = 4; seed; extra_edges = 1 } in
      let inst = Generator.safe_instance cfg in
      match Oscillation.analyze inst (model "R1O") with
      | Oscillation.Converges -> ()
      | Oscillation.Unknown _ -> () (* bound hit: acceptable for random inputs *)
      | Oscillation.Oscillates _ ->
        Alcotest.failf "safe instance oscillates (seed %d)" seed)
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Witness structure *)

let test_witness_is_fair_cycle () =
  let inst = Gadgets.disagree in
  match Oscillation.analyze inst (model "R1O") with
  | Oscillation.Oscillates w ->
    Alcotest.(check bool) "fair" true (Fairness.cycle_is_fair inst w.Oscillation.cycle);
    (* Every witness entry is a legal R1O entry. *)
    List.iter
      (fun e ->
        Alcotest.(check bool) "entry valid" true (Model.validates (View.spp inst) (model "R1O") e))
      (w.Oscillation.prefix @ w.Oscillation.cycle)
  | v -> Alcotest.failf "expected oscillation, got %a" Oscillation.pp_verdict v

let test_unreliable_witness_has_drops_covered () =
  let inst = Gadgets.disagree in
  match Oscillation.analyze inst (model "UMS") with
  | Oscillation.Oscillates w ->
    Alcotest.(check bool) "fair incl. drop rule" true
      (Fairness.cycle_is_fair inst w.Oscillation.cycle);
    Alcotest.(check bool) "replays" true
      (Oscillation.verify_witness inst (model "UMS") w)
  | v -> Alcotest.failf "expected oscillation, got %a" Oscillation.pp_verdict v

(* ------------------------------------------------------------------ *)
(* Refute: machine-checked Props. 3.10-3.13 (Examples A.3-A.5) *)

let poll1 inst c =
  let v = Gadgets.node inst c in
  Activation.single v
    (List.map
       (fun ch -> Activation.read ~count:(Activation.Finite 1) ch)
       ((View.spp inst).required v))

let target_of inst entries =
  Engine.Trace.assignments ~include_initial:true (Executor.run_entries inst entries)

let check_refute name expected result =
  let got =
    match result with
    | Refute.Realizable _ -> "realizable"
    | Refute.Impossible -> "impossible"
    | Refute.Unknown r -> "unknown: " ^ r
  in
  Alcotest.(check string) name expected got

let test_prop_3_10 () =
  (* Ex. A.3: the REO execution on FIG7 cannot be exactly realized in R1O
     (taking fairness of the continuation into account), but is realizable
     as a subsequence there and exactly in RMS. *)
  let inst = Gadgets.fig7 in
  let entries = List.map (poll1 inst) [ 'd'; 'b'; 'u'; 'v'; 'a'; 'u'; 'v'; 's'; 's'; 's' ] in
  let target = target_of inst entries in
  check_refute "not exact in R1O" "impossible"
    (Refute.realizable ~termination:Refute.Forever inst (model "R1O")
       Realization.Relation.Exact ~target);
  check_refute "subsequence in R1O" "realizable"
    (Refute.realizable inst (model "R1O") Realization.Relation.Subsequence ~target);
  (* A positive verdict is sound at any channel bound; a small bound keeps
     the RMS product space tiny. *)
  check_refute "exact in RMS" "realizable"
    (Refute.realizable
       ~config:{ Explore.default_config with Explore.channel_bound = 2 }
       ~termination:Refute.Forever inst (model "RMS") Realization.Relation.Exact ~target)

let test_prop_3_11 () =
  (* Ex. A.4: the REA execution on FIG8 cannot be realized with repetition
     in R1O; the paper's subsequence realization (inserting suad) exists. *)
  let inst = Gadgets.fig8 in
  let entries =
    List.map (fun c -> Activation.poll_all (View.spp inst) (Gadgets.node inst c))
      [ 'd'; 'a'; 'u'; 'b'; 'u'; 's' ]
  in
  let target = target_of inst entries in
  check_refute "not with repetition in R1O" "impossible"
    (Refute.realizable inst (model "R1O") Realization.Relation.Repetition ~target);
  (match
     Refute.realizable inst (model "R1O") Realization.Relation.Subsequence ~target
   with
  | Refute.Realizable schedule ->
    (* Replaying the found schedule must indeed contain the target as a
       subsequence. *)
    let realized = target_of inst schedule in
    Alcotest.(check bool) "schedule replays" true
      (Realization.Seqcheck.is_subsequence ~original:target ~realized)
  | r -> Alcotest.failf "expected subsequence realization, got %a" Refute.pp_result r)

let test_props_3_12_3_13 () =
  (* Ex. A.5: the REA execution on FIG9 cannot be exactly realized in R1S
     (Prop. 3.12); the same sequence is an REO sequence (Prop. 3.13). *)
  let inst = Gadgets.fig9 in
  let entries =
    List.map (fun c -> Activation.poll_all (View.spp inst) (Gadgets.node inst c))
      [ 'd'; 'b'; 'c'; 'x'; 's'; 'a'; 'c'; 's' ]
  in
  let target = target_of inst entries in
  check_refute "not exact in R1S" "impossible"
    (Refute.realizable inst (model "R1S") Realization.Relation.Exact ~target);
  check_refute "repetition in R1S" "realizable"
    (Refute.realizable inst (model "R1S") Realization.Relation.Repetition ~target)

let test_refute_positive_sanity () =
  (* A sequence induced by a model is trivially realizable in that model. *)
  let inst = Gadgets.disagree in
  let entries =
    List.map (fun c -> Activation.poll_all (View.spp inst) (Gadgets.node inst c)) [ 'd'; 'x'; 'y' ]
  in
  let target = target_of inst entries in
  check_refute "REA realizes its own trace" "realizable"
    (Refute.realizable inst (model "REA") Realization.Relation.Exact ~target)

let test_explore_basics () =
  let inst = Gadgets.disagree in
  let g = Explore.explore inst (model "REA") in
  Alcotest.(check bool) "no pruning" false g.Explore.pruned;
  Alcotest.(check bool) "complete" false g.Explore.truncated;
  Alcotest.(check bool) "nontrivial" true (Array.length g.Explore.states > 3);
  (* State 0 is the initial state. *)
  Alcotest.(check bool) "initial first" true
    (State.equal g.Explore.states.(0) (State.initial inst))

let test_explore_truncation_bound () =
  (* The [max_states] bound is enforced at intern time: the graph never
     exceeds it, the truncation is reported, and no edge dangles past the
     kept states. *)
  let inst = Gadgets.disagree in
  let config = { Explore.channel_bound = 4; max_states = 10 } in
  let g = Explore.explore ~config inst (model "UMS") in
  Alcotest.(check bool) "truncated" true g.Explore.truncated;
  Alcotest.(check bool) "bounded" true (Array.length g.Explore.states <= 10);
  Alcotest.(check int) "adjacency rows match states" (Array.length g.Explore.states)
    (Array.length g.Explore.adjacency);
  Array.iter
    (fun edges ->
      List.iter
        (fun (e : Explore.edge) ->
          if e.Explore.dst < 0 || e.Explore.dst >= Array.length g.Explore.states then
            Alcotest.failf "dangling edge target %d" e.Explore.dst)
        edges)
    g.Explore.adjacency

(* Canonical form of a graph, invariant under state renumbering: the state
   list sorted by [State.compare], and every edge rewritten to (source rank,
   label, target rank) and sorted.  Labels are plain data (node ids, channel
   ids), so structural compare is exact. *)
let graph_signature (g : Explore.graph) =
  let n = Array.length g.Explore.states in
  let idx = Array.init n Fun.id in
  Array.sort (fun a b -> State.compare g.Explore.states.(a) g.Explore.states.(b)) idx;
  let rank = Array.make n 0 in
  Array.iteri (fun r i -> rank.(i) <- r) idx;
  let states = Array.to_list (Array.map (fun i -> g.Explore.states.(i)) idx) in
  let edges = ref [] in
  Array.iteri
    (fun src row ->
      List.iter
        (fun (e : Explore.edge) ->
          edges := (rank.(src), e.Explore.label, rank.(e.Explore.dst)) :: !edges)
        row)
    g.Explore.adjacency;
  (states, List.sort Stdlib.compare !edges)

let prop_parallel_matches_sequential =
  (* The work-stealing explorer (forced on via spill:0, so the property
     exercises the deques/pool machinery even on 1-core hardware where the
     adaptive default would stay sequential) must agree with the sequential
     explorer on the reachable state set, the edge multiset up to state
     renumbering, the completeness flags, and the oscillation verdict —
     under every one of the 24 models per generated instance. *)
  QCheck2.Test.make ~name:"work-stealing exploration matches sequential" ~count:5
    QCheck2.Gen.(int_range 0 9_999)
    (fun seed ->
      let inst =
        Generator.instance
          { Generator.default with nodes = 4; seed; extra_edges = 1; max_paths_per_node = 2 }
      in
      let config = { Explore.channel_bound = 2; max_states = 20_000 } in
      List.for_all
        (fun m ->
          let sequential = Explore.explore ~config ~domains:1 inst m in
          let parallel = Explore.explore ~config ~domains:3 ~spill:0 inst m in
          let flags_ok =
            sequential.Explore.truncated = parallel.Explore.truncated
            && sequential.Explore.pruned = parallel.Explore.pruned
          in
          let verdict_ok =
            Oscillation.verdict_name (Oscillation.analyze_graph inst sequential)
            = Oscillation.verdict_name (Oscillation.analyze_graph inst parallel)
          in
          (* Under truncation the kept subset is schedule-dependent, so only
             the flags and the count are required to agree. *)
          let graph_ok =
            if sequential.Explore.truncated then
              Array.length sequential.Explore.states
              = Array.length parallel.Explore.states
            else begin
              let seq_states, seq_edges = graph_signature sequential in
              let par_states, par_edges = graph_signature parallel in
              List.equal State.equal seq_states par_states
              && Stdlib.compare seq_edges par_edges = 0
            end
          in
          flags_ok && verdict_ok && graph_ok)
        Model.all)

let test_pool_reuse () =
  (* Two consecutive forced-parallel explorations reuse the same pool
     domains: runs grow, the worker set does not. *)
  let inst = Gadgets.disagree in
  let m = model "UMS" in
  let explore_once () = ignore (Explore.explore ~domains:3 ~spill:0 inst m) in
  explore_once ();
  let s1 = Pool.stats (Pool.get ()) in
  explore_once ();
  let s2 = Pool.stats (Pool.get ()) in
  Alcotest.(check int) "pool size stable" s1.Pool.size s2.Pool.size;
  Alcotest.(check int) "no new domains spawned" s1.Pool.spawned_total
    s2.Pool.spawned_total;
  Alcotest.(check bool) "runs grew" true (s2.Pool.runs > s1.Pool.runs)

exception Boom

let test_ws_exception_propagates () =
  (* An exception raised by user-supplied [successors] inside a pool worker
     must propagate out of [explore_with], not hang the other workers on
     the in-flight counter (the failed item's decrement is skipped; the
     abort flag is what unblocks everyone). *)
  let inst = Gadgets.disagree in
  let m = model "UMS" in
  let base = Enumerate.groups inst m in
  let calls = Atomic.make 0 in
  let successors st =
    if Atomic.fetch_and_add calls 1 = 3 then raise Boom;
    base st
  in
  (match
     Explore.explore_with ~domains:3 ~spill:0 inst ~successors
       ~collapse:false
   with
  | _ -> Alcotest.fail "exception in successors was swallowed"
  | exception Boom -> ());
  (* The pool survives the aborted exploration. *)
  let g = Explore.explore ~domains:3 ~spill:0 inst m in
  Alcotest.(check int) "pool still explores" 39 (Array.length g.Explore.states)


(* ------------------------------------------------------------------ *)
(* Edits and the intern table *)

(* A random instance, its channels and a pool of messages to write: the
   arena ids of its permitted paths, and epsilon. *)
let edit_case seed =
  let inst =
    Generator.instance
      { Generator.default with nodes = 4; seed; extra_edges = 1; max_paths_per_node = 2 }
  in
  let chans =
    Array.of_list (List.map (fun (src, dst) -> Channel.id ~src ~dst) (Instance.channels inst))
  in
  let msgs =
    Array.of_list
      (Arena.epsilon :: List.map (fun (_, p, _) -> Arena.intern p) (Instance.all_permitted inst))
  in
  (inst, chans, msgs)

type edit_op =
  | Push of int * int  (** channel, message *)
  | Replace of int * int
  | Consume of int * bool * int * int  (** channel, set ρ, kept message, count *)

(* Pushes outnumber the rest, so queues grow past the buffer's spare
   room; consumes of more than one message and replaces of long queues
   move the later queues left, pushes and replaces of empty queues move
   them right. *)
let gen_edit_op =
  QCheck2.Gen.(
    let* c = int_range 0 99 and* m = int_range 0 99 in
    frequency
      [
        (5, return (Push (c, m)));
        (2, return (Replace (c, m)));
        ( 3,
          let* set = bool and* i = int_range 0 5 in
          return (Consume (c, set, m, i)) );
      ])

(* The ops on an edit and on a map model of the channels and ρ. *)
let apply_ops chans msgs e (q, rho) ops =
  let ch i = chans.(i mod Array.length chans) and msg i = msgs.(i mod Array.length msgs) in
  List.fold_left
    (fun (q, rho) op ->
      match op with
      | Push (c, m) ->
        State.Edit.push e (ch c) (msg m);
        (Channel.push q (ch c) (msg m), rho)
      | Replace (c, m) ->
        State.Edit.replace e (ch c) (msg m);
        (Channel.push (Channel.drop_first q (ch c) max_int) (ch c) (msg m), rho)
      | Consume (c, set, m, i) ->
        State.Edit.consume e (ch c) ~set_rho:set (msg m) i;
        let rho = if set then Channel.Map.add (ch c) (msg m) rho else rho in
        (Channel.drop_first q (ch c) i, rho))
    (q, rho) ops

(* The sealed state against the model, and the edit's own digest,
   occupancy and comparison against what sealing gives. *)
let edit_matches chans e (q, rho) =
  let s = State.Edit.seal e in
  Channel.Map.equal ( = ) (State.channels s) q
  && Array.for_all
       (fun c ->
         State.rho_id s c
         = Option.value (Channel.Map.find_opt c rho) ~default:Arena.epsilon)
       chans
  && State.max_occupancy s = Channel.max_occupancy q
  && State.Edit.digest e = State.digest s
  && State.Edit.max_occupancy e = State.max_occupancy s
  && State.Edit.equal e s
  && State.equal (State.Edit.seal ~digest:(State.Edit.digest e) e) s

let prop_edit_copies =
  QCheck2.Test.make ~name:"edit push/replace/consume = channel-map model" ~count:300
    QCheck2.Gen.(
      triple (int_range 0 9_999)
        (list_size (int_range 0 40) gen_edit_op)
        (list_size (int_range 0 80) gen_edit_op))
    (fun (seed, first, second) ->
      let inst, chans, msgs = edit_case seed in
      let e = State.Edit.create () in
      State.Edit.load e (State.initial inst);
      let model = apply_ops chans msgs e (Channel.empty, Channel.Map.empty) first in
      edit_matches chans e model
      &&
      (* A second round from the sealed state: [load] reuses the buffer. *)
      let parent = State.Edit.seal e in
      let f = State.Edit.create () in
      State.Edit.load f (State.initial inst);
      State.Edit.load f parent;
      let model = apply_ops chans msgs f model second in
      edit_matches chans f model && State.equal parent (State.Edit.seal e))

(* The intern table finds a successor by its edit: the edit's digest must
   be the sealed state's, and the buffer comparison must agree with
   [State.equal] against every stored state, or a hit would become a
   duplicate state. *)
let prop_probe_agrees_with_seal =
  QCheck2.Test.make ~name:"edit digest and comparison agree with the sealed state"
    ~count:20
    QCheck2.Gen.(pair (int_range 0 9_999) (int_range 0 23))
    (fun (seed, mi) ->
      let inst, _, _ = edit_case seed in
      let m = models.(mi) in
      let config = { Explore.channel_bound = 2; max_states = 120 } in
      let g = Explore.explore ~config ~domains:1 inst m in
      let collapse = Explore.collapses m in
      Array.for_all
        (fun st ->
          List.for_all
            (fun (l : Enumerate.labeled) ->
              Step.with_next ~project:true ~collapse inst st l.Enumerate.entry (fun n ->
                  let e = n.Step.after in
                  let s = State.Edit.seal e in
                  State.Edit.digest e = State.digest s
                  && State.Edit.max_occupancy e = State.max_occupancy s
                  && Array.for_all
                       (fun t -> State.Edit.equal e t = State.equal s t)
                       g.Explore.states))
            (Enumerate.successors inst m st))
        g.Explore.states)

(* SPP states whose digest is constant: every probe walks the whole
   chain of the table (of its shard, in the work-stealing phase). *)
module Collide = struct
  include Explore.Spp_state

  let digest _ = 0
  let draft_digest _ = 0
  let seal e ~digest:_ = State.Edit.seal e
end

module DC = Explore.Driver (Collide)

let collide_space ?(reduction = Reduce.No_reduction) inst m =
  let collapse = Explore.collapses m in
  {
    DC.initial = State.initial inst;
    normalize = (fun st -> Explore.project_state inst (Explore.collapse_state m st));
    successors = Enumerate.groups inst m;
    next = (fun st entry k -> Step.with_next ~project:true ~collapse inst st entry k);
    ample = (if reduction = Reduce.Por then Some Reduce.ample else None);
  }

let test_collision_chains () =
  let config = { Explore.channel_bound = 2; max_states = 300 } in
  let check inst name (want : Explore.graph) (g : DC.compact) ~exact =
    let got =
      {
        Explore.states = g.DC.states;
        adjacency = (DC.view g).DC.adjacency;
        pruned = g.DC.pruned;
        truncated = g.DC.truncated;
      }
    in
    Alcotest.(check bool) (name ^ ": truncated") want.Explore.truncated got.Explore.truncated;
    Alcotest.(check int) (name ^ ": states") (Array.length want.Explore.states)
      (Array.length got.Explore.states);
    (* Under truncation the work-stealing run keeps a schedule-dependent
       subset; otherwise the graphs agree up to numbering. *)
    if exact || not want.Explore.truncated then begin
      Alcotest.(check bool) (name ^ ": pruned") want.Explore.pruned got.Explore.pruned;
      Alcotest.(check string) (name ^ ": verdict")
        (Oscillation.verdict_name (Oscillation.analyze_graph inst want))
        (Oscillation.verdict_name (Oscillation.analyze_graph inst got));
      Alcotest.(check bool) (name ^ ": same graph") true
        (let ws, we = graph_signature want and gs, ge = graph_signature got in
         List.equal State.equal ws gs && Stdlib.compare we ge = 0)
    end
  in
  List.iter
    (fun inst ->
      let check = check inst in
      List.iter
        (fun m ->
          let name = Model.to_string m in
          let want = Explore.explore ~config ~domains:1 inst m in
          check (name ^ " sequential") want (DC.run config (collide_space inst m)) ~exact:true;
          check (name ^ " stealing") want
            (DC.run ~pool:(3, 0) config (collide_space inst m))
            ~exact:false;
          check (name ^ " por")
            (Explore.explore ~config ~reduction:Reduce.Por ~domains:1 inst m)
            (DC.run config (collide_space ~reduction:Reduce.Por inst m))
            ~exact:true)
        Model.all)
    [ Gadgets.disagree; Gadgets.bad_gadget ]

(* What work stealing promises (explore.mli): without truncation, the
   sequential run's state set, [pruned] flag and verdict; with it, a
   truncated graph of at most [max_states] states whose CSR has no
   dangling edge, whichever subset the schedule kept.  The constant
   digest (slow probes under the shard locks) and the real one both run,
   at a cap that truncates some models and at one that truncates none. *)
let test_stealing_contract () =
  let check inst tag (want : Explore.compact) (got : Explore.compact) =
    let n = Array.length got.Explore.states in
    let csr = got.Explore.csr in
    let m = Array.length csr.Fair.dst in
    let dangling = Array.exists (fun d -> d < 0 || d >= n) csr.Fair.dst in
    Alcotest.(check bool) (tag ^ ": truncated") want.Explore.truncated got.Explore.truncated;
    Alcotest.(check bool) (tag ^ ": CSR shape") true
      (Array.length csr.Fair.first = n + 1 && csr.Fair.first.(n) = m && not dangling);
    if want.Explore.truncated then
      Alcotest.(check int) (tag ^ ": states at the bound") (Array.length want.Explore.states) n
    else begin
      let sorted (g : Explore.compact) =
        List.sort State.compare (Array.to_list g.Explore.states)
      in
      Alcotest.(check bool) (tag ^ ": state set") true
        (List.equal State.equal (sorted want) (sorted got));
      Alcotest.(check bool) (tag ^ ": pruned") want.Explore.pruned got.Explore.pruned;
      Alcotest.(check string) (tag ^ ": verdict")
        (Oscillation.verdict_name (Oscillation.analyze_compact inst want))
        (Oscillation.verdict_name (Oscillation.analyze_compact inst got))
    end
  in
  List.iter
    (fun max_states ->
      let config = { Explore.channel_bound = 2; max_states } in
      List.iter
        (fun m ->
          let inst = Gadgets.disagree in
          let tag = Printf.sprintf "%s cap %d" (Model.to_string m) max_states in
          let want = Explore.explore_compact ~config ~domains:1 inst m in
          Alcotest.(check bool) (tag ^ ": within the bound") true
            (Array.length want.Explore.states <= max_states);
          check inst (tag ^ " stealing") want
            (Explore.explore_compact ~config ~domains:3 ~spill:0 inst m);
          let c = DC.run ~pool:(3, 0) config (collide_space inst m) in
          check inst (tag ^ " collide stealing") want
            {
              Explore.states = c.DC.states;
              csr = c.DC.csr;
              pruned = c.DC.pruned;
              truncated = c.DC.truncated;
            })
        Model.all)
    [ 300; 20_000 ]

(* ------------------------------------------------------------------ *)
(* One step per effect *)

(* The reference expansion: every label is its own representative, so the
   driver steps every label. *)
let step_every_label groups st =
  List.map
    (fun (g : Enumerate.group) ->
      { g with Enumerate.rep = Array.init (Array.length g.Enumerate.rep) Fun.id })
    (groups st)

let effect_counters m =
  Metrics.
    [
      ("dedup", dedup_hits m);
      ("pruned", pruned_writes m);
      ("truncated", truncated_interns m);
      ("edges", edges m);
      ("interned", states_interned m);
      ("ample", ample_states m);
    ]

(* The default exploration against the reference, both over one memo so
   their labels are the same values: the same states, CSR arrays, labels
   (physically), flags and counters; and, on a graph the state bound did
   not truncate, the same work-stealing graph up to numbering. *)
let effect_parity ~config ~reduction tag inst m =
  let tag = Printf.sprintf "%s %s %s" tag (Model.to_string m) (Reduce.to_string reduction) in
  let groups = Enumerate.groups inst m and collapse = Explore.collapses m in
  let run ?spill ~domains successors =
    let metrics = Metrics.create () in
    let g =
      Explore.explore_with ~config ~reduction ~domains ?spill ~metrics inst ~successors
        ~collapse
    in
    (g, effect_counters metrics)
  in
  let check_flags tag (a : Explore.compact) (b : Explore.compact) ca cb =
    Alcotest.(check bool) (tag ^ ": pruned") b.Explore.pruned a.Explore.pruned;
    Alcotest.(check bool) (tag ^ ": truncated") b.Explore.truncated a.Explore.truncated;
    Alcotest.(check (list (pair string int))) (tag ^ ": counters") cb ca
  in
  let g, c = run ~domains:1 groups and r, rc = run ~domains:1 (step_every_label groups) in
  Alcotest.(check int) (tag ^ ": states") (Array.length r.Explore.states)
    (Array.length g.Explore.states);
  Alcotest.(check bool) (tag ^ ": same states") true
    (Array.for_all2 State.equal g.Explore.states r.Explore.states);
  Alcotest.(check (array int)) (tag ^ ": first") r.Explore.csr.Fair.first
    g.Explore.csr.Fair.first;
  Alcotest.(check (array int)) (tag ^ ": dst") r.Explore.csr.Fair.dst g.Explore.csr.Fair.dst;
  Alcotest.(check bool) (tag ^ ": same labels") true
    (Array.for_all2 ( == ) g.Explore.csr.Fair.label r.Explore.csr.Fair.label);
  check_flags tag g r c rc;
  if not g.Explore.truncated then begin
    let p, pc = run ~domains:3 ~spill:0 groups
    and q, qc = run ~domains:3 ~spill:0 (step_every_label groups) in
    let tag = tag ^ " stealing" in
    check_flags tag p q pc qc;
    let ps, pe = graph_signature (Explore.view p) and qs, qe = graph_signature (Explore.view q) in
    Alcotest.(check bool) (tag ^ ": same graph") true
      (List.equal State.equal ps qs && Stdlib.compare pe qe = 0)
  end

let reductions = [ Reduce.No_reduction; Reduce.Por ]

let test_effect_parity_gadgets () =
  let config = { Explore.channel_bound = 3; max_states = 3_000 } in
  List.iter
    (fun (name, inst) ->
      List.iter
        (fun m ->
          List.iter (fun reduction -> effect_parity ~config ~reduction name inst m) reductions)
        Model.all)
    (Gadgets.all_named ())

let test_effect_parity_fig6_deep () =
  List.iter
    (fun name ->
      List.iter
        (fun reduction ->
          effect_parity ~config:Explore.default_config ~reduction "FIG6" Gadgets.fig6
            (model name))
        reductions)
    [ "R1A"; "RMA" ]

let test_effect_parity_generated () =
  let config = { Explore.channel_bound = 2; max_states = 2_000 } in
  for seed = 0 to 19 do
    let inst =
      Generator.instance
        { Generator.default with nodes = 4; seed; extra_edges = 1; max_paths_per_node = 2 }
    in
    List.iter
      (fun m ->
        List.iter
          (fun reduction ->
            effect_parity ~config ~reduction (Printf.sprintf "seed %d" seed) inst m)
          reductions)
      Model.all
  done

(* ------------------------------------------------------------------ *)
(* Cross-validation between independent components *)

let test_reachable_solutions_subset_of_solver () =
  (* Every stable solution the model checker reaches must be found by the
     enumerating solver, on random instances.  Small instances and a tight
     channel bound keep the exploration cheap. *)
  let config = { Explore.channel_bound = 2; max_states = 50_000 } in
  List.iter
    (fun seed ->
      let inst =
        Generator.instance
          { Generator.default with nodes = 4; seed; extra_edges = 1; max_paths_per_node = 2 }
      in
      let all = Solver.solutions inst in
      List.iter
        (fun mname ->
          List.iter
            (fun a ->
              if not (List.exists (Assignment.equal a) all) then
                Alcotest.failf "reachable non-solution under %s (seed %d)" mname seed)
            (Quiescence.reachable_solutions ~config inst (model mname)))
        [ "R1O"; "REA" ])
    [ 1; 2; 3; 4; 5; 6 ]

let test_refute_agrees_with_transform () =
  (* Whatever the constructive transforms realize, the reachability-based
     decision procedure must also find realizable. *)
  let inst = Gadgets.disagree in
  List.iter
    (fun (src, tgt, level) ->
      let source = model src and target = model tgt in
      let entries = Engine.Scheduler.prefix 8 (Engine.Scheduler.random inst source ~seed:3) in
      let original = target_of inst entries in
      match Refute.realizable inst target level ~target:original with
      | Refute.Realizable _ -> ()
      | r ->
        Alcotest.failf "%s trace should be %s-realizable in %s, got %a" src
          (Realization.Relation.to_string level) tgt Refute.pp_result r)
    [
      ("RMA", "RMS", Realization.Relation.Exact);
      ("R1O", "UMS", Realization.Relation.Exact);
      ("RMS", "R1S", Realization.Relation.Repetition);
      ("RES", "R1O", Realization.Relation.Subsequence);
    ]

let test_constructive_agrees_with_enumeration () =
  List.iter
    (fun seed ->
      let inst = Generator.safe_instance { Generator.default with nodes = 5; seed } in
      match (Solver.constructive inst, Solver.solutions inst) with
      | Some a, [ only ] ->
        Alcotest.(check bool) "unique solution matches" true (Assignment.equal a only)
      | Some a, several ->
        Alcotest.(check bool) "constructive is among solutions" true
          (List.exists (Assignment.equal a) several)
      | None, [] -> ()
      | None, _ :: _ ->
        (* The greedy construction is allowed to fail only on instances
           with dispute wheels. *)
        Alcotest.(check bool) "wheel present" true (Dispute.has_wheel inst))
    [ 7; 8; 9; 10; 11 ]

let () =
  Alcotest.run "modelcheck"
    [
      ( "enumerate",
        [
          Alcotest.test_case "counts" `Quick test_enumerate_counts;
          Alcotest.test_case "drop variants" `Quick test_enumerate_drop_variants;
          Alcotest.test_case "entries validate (24 models)" `Quick
            test_enumerate_entries_validate;
        ] );
      ( "memo",
        [
          QCheck_alcotest.to_alcotest prop_memo_parity;
          QCheck_alcotest.to_alcotest prop_memo_every_model;
          Alcotest.test_case "two domains share one memo" `Quick test_memo_two_domains;
          Alcotest.test_case "FIG6 R1A/RMA work counts" `Quick test_fig6_work_counts;
        ] );
      ( "kernel",
        [
          QCheck_alcotest.to_alcotest prop_kernel_parity;
          QCheck_alcotest.to_alcotest prop_graph_normal;
          QCheck_alcotest.to_alcotest prop_zero_reads_noop;
          Alcotest.test_case "resumed states normal" `Quick test_normal_resume;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "DISAGREE 24-model sweep" `Quick test_disagree_sweep;
          Alcotest.test_case "FIG6 REA converges" `Quick test_fig6_rea_converges;
          Alcotest.test_case "BAD GADGET oscillates" `Slow test_bad_gadget_oscillates;
          Alcotest.test_case "GOOD GADGET converges" `Quick test_good_gadget_converges;
          Alcotest.test_case "safe random instances converge" `Slow
            test_safe_random_instances_converge;
        ] );
      ( "refute",
        [
          Alcotest.test_case "Prop 3.10 (Ex A.3)" `Quick test_prop_3_10;
          Alcotest.test_case "Prop 3.11 (Ex A.4)" `Quick test_prop_3_11;
          Alcotest.test_case "Props 3.12/3.13 (Ex A.5)" `Quick test_props_3_12_3_13;
          Alcotest.test_case "positive sanity" `Quick test_refute_positive_sanity;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "reachable solutions are solver solutions" `Quick
            test_reachable_solutions_subset_of_solver;
          Alcotest.test_case "refute agrees with transforms" `Quick
            test_refute_agrees_with_transform;
          Alcotest.test_case "constructive agrees with enumeration" `Quick
            test_constructive_agrees_with_enumeration;
        ] );
      ( "witnesses",
        [
          Alcotest.test_case "fair R1O witness" `Quick test_witness_is_fair_cycle;
          Alcotest.test_case "UMS drops covered" `Quick
            test_unreliable_witness_has_drops_covered;
          Alcotest.test_case "explore basics" `Quick test_explore_basics;
          Alcotest.test_case "truncation bound" `Quick test_explore_truncation_bound;
        ] );
      ( "intern",
        [
          QCheck_alcotest.to_alcotest prop_edit_copies;
          QCheck_alcotest.to_alcotest prop_probe_agrees_with_seal;
          Alcotest.test_case "collision chains: same graphs as the real digest" `Quick
            test_collision_chains;
          Alcotest.test_case "work stealing keeps its contract" `Quick test_stealing_contract;
        ] );
      ( "effects",
        [
          Alcotest.test_case "gadgets x 24 models, one step per effect" `Quick
            test_effect_parity_gadgets;
          Alcotest.test_case "FIG6 R1A/RMA, one step per effect" `Quick
            test_effect_parity_fig6_deep;
          Alcotest.test_case "generated instances, one step per effect" `Quick
            test_effect_parity_generated;
        ] );
      ( "parallel",
        Alcotest.test_case "pool reused across explorations" `Quick test_pool_reuse
        :: Alcotest.test_case "worker exception propagates, no hang" `Quick
             test_ws_exception_propagates
        :: List.map QCheck_alcotest.to_alcotest [ prop_parallel_matches_sequential ] );
    ]

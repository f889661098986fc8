(* The protocol-generic engine core (Engine.Generic / Modelcheck.Gexplore)
   and the three shipped protocols.

   The heart of the suite is parity: [Gexplore.Make (Path_vector)] must
   reproduce the legacy explorer bit-for-bit — same state counts, same
   verdicts (including Unknown reasons), same pruned/truncated flags — on
   the paper's gadgets across all 24 models, including the Fig. 6 deep
   polling cases at the default config.  Around it: gossip's infected-set
   monotonicity and its clean R-converges/U-diverges split with verified
   witnesses, push-sum's mass conservation under every reliable model and
   exact drop reconciliation under the unreliable ones, and the generic
   validators/schedulers/timed wrapper. *)

open Spp
open Engine
open Modelcheck
module GPV = Gexplore.Make (Protocols.Path_vector)
module GG = Gexplore.Make (Protocols.Gossip)
module EG = GG.E
module EPS = Generic.Make (Protocols.Pushsum)

let model s = Option.get (Model.of_string s)

(* ------------------------------------------------------------------ *)
(* Path-vector parity against the legacy explorer. *)

let legacy_verdict inst g = Oscillation.analyze_graph inst g

(* Both stacks return a {!Fair.verdict}; the Unknown reason is compared
   too. *)
let verdict_name = function
  | Fair.Oscillates _ -> "diverges"
  | Fair.Converges -> "converges"
  | Fair.Unknown r -> "unknown: " ^ r

let check_parity name inst config m =
  let tag = Printf.sprintf "%s/%s" name (Model.to_string m) in
  let lg = Explore.explore ~config ~domains:1 inst m in
  let gg = GPV.explore ~config inst m in
  Alcotest.(check int)
    (tag ^ " states")
    (Array.length lg.Explore.states)
    (Array.length gg.GPV.states);
  Alcotest.(check bool) (tag ^ " pruned") lg.Explore.pruned gg.GPV.pruned;
  Alcotest.(check bool) (tag ^ " truncated") lg.Explore.truncated gg.GPV.truncated;
  Alcotest.(check string)
    (tag ^ " verdict")
    (verdict_name (legacy_verdict inst lg))
    (verdict_name (GPV.analyze_graph inst gg))

let test_pv_parity_disagree () =
  List.iter (check_parity "DISAGREE" Gadgets.disagree Explore.default_config) Model.all

let test_pv_parity_fig6_bounded () =
  let config = { Explore.channel_bound = 2; max_states = 800 } in
  List.iter (check_parity "FIG6" Gadgets.fig6 config) Model.all

(* The Fig. 6 deep polling cases of the bench, at the default config. *)
let test_pv_parity_fig6_deep () =
  List.iter
    (fun m -> check_parity "FIG6" Gadgets.fig6 Explore.default_config (model m))
    [ "R1A"; "RMA" ]

let test_pv_witness_verifies () =
  List.iter
    (fun mname ->
      let m = model mname in
      match GPV.analyze Gadgets.disagree m with
      | GPV.Oscillates w ->
        Alcotest.(check bool)
          (mname ^ " witness replays")
          true
          (GPV.verify_witness Gadgets.disagree m w)
      | v -> Alcotest.failf "DISAGREE %s: expected divergence, got %s" mname (verdict_name v))
    [ "R1O"; "RMS"; "U1S" ]

(* The generic executor agrees with the legacy one on the shared round-robin
   schedule over each stack's view. *)
let test_pv_executor_matches_legacy () =
  List.iter
    (fun inst ->
      List.iter
        (fun mname ->
          let m = model mname in
          let legacy = Executor.run ~max_steps:2000 inst (Scheduler.round_robin inst m) in
          let generic =
            GPV.E.Executor.run ~max_steps:2000 inst (Scheduler.round_robin_of (GPV.E.view inst) m)
          in
          let l_conv = legacy.Executor.stop = Executor.Converged in
          let g_conv = generic.GPV.E.Executor.stop = GPV.E.Executor.Converged in
          Alcotest.(check bool) (mname ^ " converged") l_conv g_conv)
        [ "R1O"; "REA"; "RMS"; "UMS" ])
    [ Gadgets.disagree; Gadgets.good_gadget; Gadgets.shortest_paths ~n:4 ]

(* ------------------------------------------------------------------ *)
(* Cross-stack parity of the activation layer: the SPP view and
   [Generic.Make (Path_vector)]'s differ only at the destination, which
   under a 1 model reads each channel into it in SPP and has no channel in
   the generic view.  Everywhere else the shared schedules, validators and
   timed loop must give the same answers over both stacks. *)

let off_dest inst entries =
  List.filter (fun (e : Activation.t) -> e.Activation.active <> [ Instance.dest inst ]) entries

let test_stack_parity_timed () =
  List.iter
    (fun (name, inst) ->
      List.iter
        (fun (delays, link_delay) ->
          List.iter
            (fun i ->
              let cfg =
                { Timed.default with mrai = (fun _ -> i); link_delay; horizon = 2_000 }
              in
              let s = Timed.batch cfg (Timed.spp inst)
              and g = Timed.batch cfg (GPV.E.timed inst) in
              let tag = Printf.sprintf "%s %s mrai=%d" name delays i in
              Alcotest.(check bool) (tag ^ " converged") s.Timed.converged g.Timed.converged;
              Alcotest.(check (list int))
                (tag ^ " finish, last change, messages, activations")
                [ s.Timed.finish_time; s.last_change; s.messages; s.activations ]
                [ g.Timed.finish_time; g.last_change; g.messages; g.activations ])
            [ 1; 2; 4; 8 ])
        [ ("unit", Timed.default.link_delay); ("spread", Timed.spread_delays inst) ])
    (Gadgets.all_named ())

let entries_t = Alcotest.testable (fun ppf _ -> Fmt.string ppf "<entries>") ( = )

let test_stack_parity_schedules () =
  List.iter
    (fun (name, inst) ->
      let spp = View.spp inst and pv = GPV.E.view inst in
      List.iter
        (fun m ->
          let tag = Printf.sprintf "%s/%s" name (Model.to_string m) in
          Alcotest.check entries_t (tag ^ " round-robin cycle off the destination")
            (off_dest inst (Scheduler.round_robin_cycle spp m))
            (off_dest inst (Scheduler.round_robin_cycle pv m));
          Alcotest.check entries_t (tag ^ " synchronous entry")
            (Scheduler.prefix 1 (Scheduler.synchronous spp m))
            (Scheduler.prefix 1 (Scheduler.synchronous pv m)))
        Model.all)
    (Gadgets.all_named ())

let test_stack_parity_validators () =
  List.iter
    (fun (name, inst) ->
      let spp = View.spp inst and pv = GPV.E.view inst in
      let entries =
        off_dest inst
          (List.concat_map
             (fun m ->
               Scheduler.round_robin_cycle spp m @ Scheduler.prefix 1 (Scheduler.synchronous spp m))
             Model.all)
      in
      List.iter
        (fun m ->
          List.iter
            (fun e ->
              let tag = Printf.sprintf "%s/%s" name (Model.to_string m) in
              Alcotest.(check bool) (tag ^ " validates")
                (Model.validates spp m e) (Model.validates pv m e);
              Alcotest.(check bool) (tag ^ " validates_multi")
                (Model.validates_multi spp m e) (Model.validates_multi pv m e))
            entries)
        Model.all)
    (Gadgets.all_named ())

(* ------------------------------------------------------------------ *)
(* Gossip. *)

let gossip_config = { Explore.channel_bound = 2; max_states = 2000 }

let infected_set inst st =
  List.filter
    (fun v -> (EG.State.local st v).Protocols.Gossip.infected)
    (Protocols.Gossip.nodes inst)

let subset a b = List.for_all (fun x -> List.mem x b) a

(* Infected sets only grow along any explored edge. *)
let gossip_monotone =
  QCheck2.Test.make ~name:"gossip infected set is monotone" ~count:40
    QCheck2.Gen.(
      quad (int_range 0 2) (int_range 3 5) (int_range 0 23) (int_range 0 5))
    (fun (kind, n, mi, src) ->
      let topo =
        match kind with
        | 0 -> Protocols.Topo.ring n
        | 1 -> Protocols.Topo.star n
        | _ -> Protocols.Topo.complete n
      in
      let inst = Protocols.Gossip.make ~source:(src mod n) topo in
      let m = List.nth Model.all mi in
      let g = GG.explore ~config:gossip_config inst m in
      let adjacency = (GG.Driver.view g).GG.Driver.adjacency in
      Array.for_all
        (fun i ->
          let from = infected_set inst g.GG.states.(i) in
          List.for_all
            (fun (e : GG.edge) -> subset from (infected_set inst g.GG.states.(e.GG.dst)))
            adjacency.(i))
        (Array.init (Array.length g.GG.states) Fun.id))

(* Reliable models can never lose the rumor: every fair schedule converges.
   Unreliable models can drop every copy: divergence, with a witness the
   executor replays.  (The witness replay IS the executor/explorer
   agreement check on the divergent side; on the convergent side the
   canonical fair schedule must reach the verdict's promised fixpoint.) *)
let test_gossip_verdicts () =
  let inst = Protocols.Gossip.make (Protocols.Topo.ring 4) in
  List.iter
    (fun (m : Model.t) ->
      let v = GG.analyze ~config:gossip_config inst m in
      match (m.Model.rel, v) with
      | Model.Reliable, GG.Converges ->
        Alcotest.(check bool)
          (Model.to_string m ^ " round robin converges")
          true
          (EG.Executor.converges ~max_steps:2000 inst (Scheduler.round_robin_of (EG.view inst) m))
      | Model.Unreliable, GG.Oscillates w ->
        Alcotest.(check bool)
          (Model.to_string m ^ " witness replays")
          true (GG.verify_witness inst m w)
      | _, v ->
        Alcotest.failf "gossip %s: unexpected verdict %s" (Model.to_string m)
          (GG.verdict_name v))
    Model.all

(* A deterministic stuck run: announce, drop both rumor copies, then spin a
   fair dropless cycle — the generic executor must detect the state/phase
   cycle, and the state must not count as converged. *)
let test_gossip_cycle_detected () =
  let inst = Protocols.Gossip.make (Protocols.Topo.ring 3) in
  let m = model "UEA" in
  let prefix =
    [
      Activation.single 0 [];
      Activation.single 1 [ Activation.read ~drops:[ 1 ] (Channel.id ~src:0 ~dst:1) ];
      Activation.single 2 [ Activation.read ~drops:[ 1 ] (Channel.id ~src:0 ~dst:2) ];
    ]
  in
  let sched = Scheduler.prefixed prefix (Scheduler.round_robin_cycle (EG.view inst) m) in
  let run = EG.Executor.run ~max_steps:200 inst sched in
  (match run.EG.Executor.stop with
  | EG.Executor.Cycle _ -> ()
  | s -> Alcotest.failf "expected a cycle, got %a" EG.Executor.pp_stop s);
  Alcotest.(check bool)
    "stuck state is not converged" false
    (EG.State.converged inst run.EG.Executor.final)

let test_gossip_timed () =
  let inst = Protocols.Gossip.make (Protocols.Topo.star 5) in
  List.iter
    (fun (i, (r : _ Timed.result)) ->
      Alcotest.(check bool) (Printf.sprintf "mrai=%d converged" i) true r.Timed.converged)
    (Timed.mrai_sweep ~intervals:[ 1; 2; 4 ] (EG.timed inst))

(* Gossip through the shared driver with work stealing forced on (spill 0
   engages the pool at once, even on one core): the state set, the
   pruned/truncated flags and the verdict equal the sequential run's, under
   every model.  Under truncation the kept subset is schedule-dependent, so
   only the count must agree. *)
let test_gossip_work_stealing () =
  let inst = Protocols.Gossip.make (Protocols.Topo.ring 4) in
  let sorted (g : GG.graph) = List.sort EG.State.compare (Array.to_list g.GG.states) in
  List.iter
    (fun m ->
      let tag = Model.to_string m in
      let sequential = GG.explore ~config:gossip_config inst m in
      let parallel =
        GG.Driver.run ~pool:(3, 0) gossip_config (GG.space inst ~model_of:(fun _ -> m))
      in
      Alcotest.(check bool) (tag ^ " pruned") sequential.GG.pruned parallel.GG.pruned;
      Alcotest.(check bool) (tag ^ " truncated") sequential.GG.truncated
        parallel.GG.truncated;
      if sequential.GG.truncated then
        Alcotest.(check int) (tag ^ " states")
          (Array.length sequential.GG.states)
          (Array.length parallel.GG.states)
      else
        Alcotest.(check bool) (tag ^ " state set") true
          (List.equal EG.State.equal (sorted sequential) (sorted parallel));
      Alcotest.(check string) (tag ^ " verdict")
        (GG.verdict_name (GG.analyze_graph inst sequential))
        (GG.verdict_name (GG.analyze_graph inst parallel)))
    Model.all

(* ------------------------------------------------------------------ *)
(* Push-sum: mass conservation and drop reconciliation. *)

let ps_mass inst st =
  List.fold_left
    (fun acc v -> acc +. (EPS.State.local st v).Protocols.Pushsum.s)
    0.
    (Protocols.Pushsum.nodes inst)
  +. List.fold_left
       (fun acc (_, msgs) ->
         List.fold_left (fun a m -> a +. fst (Protocols.Pushsum.payload m)) acc msgs)
       0.
       (EPS.State.channel_bindings st)

let dropped_mass (r : EPS.Executor.step_record) =
  List.fold_left
    (fun acc (_, msgs) ->
      List.fold_left (fun a m -> a +. fst (Protocols.Pushsum.payload m)) acc msgs)
    0. r.EPS.Executor.outcome.EPS.Step.dropped

(* Total mass (locals + in-flight) is invariant under every reliable model,
   at every step of the run, up to float rounding. *)
let test_pushsum_mass_reliable () =
  let inst = Protocols.Pushsum.linear (Protocols.Topo.ring 4) in
  let initial = ps_mass inst (EPS.State.initial inst) in
  List.iter
    (fun (m : Model.t) ->
      let worst = ref 0. in
      let run =
        EPS.Executor.run ~max_steps:500
          ~on_step:(fun r ->
            let dev =
              Float.abs (ps_mass inst r.EPS.Executor.outcome.EPS.Step.state -. initial)
            in
            if dev > !worst then worst := dev)
          inst (Scheduler.round_robin_of (EPS.view inst) m)
      in
      ignore run;
      Alcotest.(check bool)
        (Model.to_string m ^ " conserves mass")
        true
        (!worst <= 1e-9 *. Float.abs initial))
    Model.reliable

(* Under unreliable models the deficit is exactly the dropped messages'
   mass: final mass + dropped mass = initial mass. *)
let test_pushsum_drop_reconciliation () =
  let inst = Protocols.Pushsum.linear (Protocols.Topo.ring 4) in
  let initial = ps_mass inst (EPS.State.initial inst) in
  List.iter
    (fun (m : Model.t) ->
      List.iter
        (fun every ->
          let dropped = ref 0. in
          let run =
            EPS.Executor.run ~max_steps:500
              ~on_step:(fun r -> dropped := !dropped +. dropped_mass r)
              inst
              (EPS.round_robin_lossy ~every inst m)
          in
          let final = ps_mass inst run.EPS.Executor.final in
          Alcotest.(check bool)
            (Printf.sprintf "%s every=%d reconciles" (Model.to_string m) every)
            true
            (Float.abs (final +. !dropped -. initial) <= 1e-9 *. Float.abs initial))
        [ 2; 5 ])
    Model.unreliable

(* Estimates actually reach the true average under the reliable polling
   round robin. *)
let test_pushsum_converges () =
  let inst = Protocols.Pushsum.linear ~eps:1e-3 (Protocols.Topo.ring 5) in
  let run = EPS.Executor.run ~max_steps:5000 inst (Scheduler.round_robin_of (EPS.view inst) (model "REA")) in
  (match run.EPS.Executor.stop with
  | EPS.Executor.Converged -> ()
  | s -> Alcotest.failf "push-sum REA: expected convergence, got %a" EPS.Executor.pp_stop s);
  let avg = Protocols.Pushsum.average inst in
  List.iter
    (fun v ->
      let l = EPS.State.local run.EPS.Executor.final v in
      Alcotest.(check bool)
        (Printf.sprintf "node %d estimate" v)
        true
        (Float.abs ((l.Protocols.Pushsum.s /. l.Protocols.Pushsum.w) -. avg) <= 1e-3))
    (Protocols.Pushsum.nodes inst)

(* Mass lost to drops persists: a lossy run's estimates can settle, but its
   total mass is strictly below the initial (the bench reports this rather
   than hiding it). *)
let test_pushsum_lossy_loses_mass () =
  let inst = Protocols.Pushsum.linear (Protocols.Topo.ring 4) in
  let initial = ps_mass inst (EPS.State.initial inst) in
  let run =
    EPS.Executor.run ~max_steps:500 inst
      (EPS.round_robin_lossy ~every:3 inst (model "UEA"))
  in
  Alcotest.(check bool)
    "drops counted" true
    (run.EPS.Executor.drops > 0);
  Alcotest.(check bool)
    "mass strictly lost" true
    (ps_mass inst run.EPS.Executor.final < initial -. 1e-6)

(* ------------------------------------------------------------------ *)
(* Generic validators and schedulers. *)

let test_generic_round_robin_validates () =
  let inst = Protocols.Gossip.make (Protocols.Topo.ring 3) in
  List.iter
    (fun m ->
      let sched = Scheduler.round_robin_of (EG.view inst) m in
      let entries =
        Scheduler.prefix (Option.get sched.Scheduler.period) sched
      in
      Alcotest.(check bool)
        (Model.to_string m ^ " round robin validates")
        true
        (List.for_all (Model.validates (EG.view inst) m) entries))
    Model.all

let test_generic_lossy_validates_unreliable_only () =
  let inst = Protocols.Gossip.make (Protocols.Topo.ring 3) in
  let uma = model "UMA" and rma = model "RMA" in
  let sched = EG.round_robin_lossy ~every:2 inst uma in
  let entries = Scheduler.prefix (Option.get sched.Scheduler.period) sched in
  Alcotest.(check bool)
    "lossy validates under UMA" true
    (List.for_all (Model.validates (EG.view inst) uma) entries);
  Alcotest.(check bool)
    "some lossy entry violates RMA" true
    (List.exists (fun e -> not (Model.validates (EG.view inst) rma e)) entries);
  Alcotest.check_raises "lossy refuses reliable models"
    (Invalid_argument "Generic.round_robin_lossy: drops require an unreliable model")
    (fun () -> ignore (EG.round_robin_lossy ~every:2 inst rma))

let test_generic_synchronous_validates_multi () =
  let inst = Protocols.Gossip.make (Protocols.Topo.ring 3) in
  let m = model "REA" in
  let sched = Scheduler.synchronous (EG.view inst) m in
  let entries = Scheduler.prefix 1 sched in
  Alcotest.(check bool)
    "synchronous validates (multi)" true
    (List.for_all (Model.validates_multi (EG.view inst) m) entries);
  Alcotest.(check bool)
    "synchronous is not single-node valid" true
    (List.exists (fun e -> not (Model.validates (EG.view inst) m e)) entries);
  let run = EG.Executor.run ~max_steps:50 inst sched in
  Alcotest.(check bool)
    "synchronous gossip converges" true
    (run.EG.Executor.stop = EG.Executor.Converged)

(* Per-node model mixtures, the generic counterpart of Engine.Hetero. *)
let test_generic_hetero_model_of () =
  let inst = Protocols.Gossip.make (Protocols.Topo.ring 3) in
  let model_of v = if v = 0 then model "R1O" else model "REA" in
  let sched = Scheduler.round_robin_of ~model_of (EG.view inst) (model "REA") in
  let entries = Scheduler.prefix (Option.get sched.Scheduler.period) sched in
  Alcotest.(check bool)
    "heterogeneous cycle validates per node" true
    (List.for_all (Model.validates ~model_of (EG.view inst) (model "REA")) entries);
  let run = EG.Executor.run ~max_steps:200 inst sched in
  Alcotest.(check bool)
    "heterogeneous gossip converges" true
    (run.EG.Executor.stop = EG.Executor.Converged)

let test_generic_well_formed () =
  let inst = Protocols.Gossip.make (Protocols.Topo.ring 3) in
  let bogus = Channel.id ~src:0 ~dst:2 in
  (* 0 and 2 are ring neighbors; (0,2) is a real channel, (1,0) read by a
     non-active node and an unknown (3,0) channel are not well-formed. *)
  let e1 = Activation.single 2 [ Activation.read bogus ] in
  Alcotest.(check bool) "adjacent channel ok" true (Activation.well_formed (EG.view inst) e1 = []);
  let e2 = Activation.single 2 [ Activation.read (Channel.id ~src:1 ~dst:0) ] in
  Alcotest.(check bool) "reader not active" true (Activation.well_formed (EG.view inst) e2 <> []);
  let e3 = Activation.single 0 [ Activation.read (Channel.id ~src:3 ~dst:0) ] in
  Alcotest.(check bool) "unknown channel" true (Activation.well_formed (EG.view inst) e3 <> [])

(* ------------------------------------------------------------------ *)
(* Tampered witnesses.  Each case breaks one clause of the replay check
   both stacks share ({!Fair.replays}) and keeps the others: a cycle that
   misses a tracked channel, a channel the cycle only drops on, drops
   under a reliable model, and a schedule that converges.  The SPP stack
   ([Oscillation]) and the generic one ([Gexplore.Make (P)]) must both
   reject each, while the untampered witness replays. *)

type stack = {
  stack : string;
  analyze : Instance.t -> Model.t -> Fair.verdict;
  verify : Instance.t -> Model.t -> Fair.witness -> bool;
}

let stacks =
  [
    {
      stack = "SPP";
      analyze = (fun inst m -> Oscillation.analyze inst m);
      verify = (fun inst m w -> Oscillation.verify_witness inst m w);
    };
    {
      stack = "path-vector";
      analyze = (fun inst m -> GPV.analyze inst m);
      verify = (fun inst m w -> GPV.verify_witness inst m w);
    };
  ]

let witness tag = function
  | Fair.Oscillates w -> w
  | v -> Alcotest.failf "%s: expected a witness, got %s" tag (Fair.verdict_name "oscillates" v)

let reads_chan c (e : Activation.t) =
  List.exists (fun (r : Activation.read) -> Channel.equal_id r.Activation.chan c) e.Activation.reads

let has_drops (e : Activation.t) =
  List.exists
    (fun (r : Activation.read) -> not (Activation.IntSet.is_empty r.Activation.drops))
    e.Activation.reads

(* Runs [tamper] on each stack's witness for [inst] under [m]: the witness
   must replay and its tampered copy must not. *)
let rejects_tampered inst m tamper =
  List.iter
    (fun s ->
      let tag = Printf.sprintf "%s %s" s.stack (Model.to_string m) in
      let w = witness tag (s.analyze inst m) in
      Alcotest.(check bool) (tag ^ " witness replays") true (s.verify inst m w);
      Alcotest.(check bool) (tag ^ " tampered witness replays") false (s.verify inst m (tamper w)))
    stacks

(* DISAGREE's R1O cycle reads (d,x) once, in an entry that processes
   nothing: without it, the states and the state cycle stay the same. *)
let test_tamper_unread () =
  let inst = Gadgets.disagree in
  rejects_tampered inst (model "R1O") (fun w ->
      let readers c = List.length (List.filter (reads_chan c) w.Fair.cycle) in
      match List.find_opt (fun c -> readers c = 1) (View.tracked (View.spp inst)) with
      | Some c -> { w with Fair.cycle = List.filter (fun e -> not (reads_chan c e)) w.Fair.cycle }
      | None -> Alcotest.fail "no tracked channel with a single reader")

(* BAD GADGET's U1S cycle reads (2,1) once, dropping the second of two
   messages and keeping the first; after the change that read drops both,
   and the states still cycle. *)
let test_tamper_only_drops () =
  rejects_tampered Gadgets.bad_gadget (model "U1S") (fun w ->
      let dropping =
        List.concat_map
          (fun (e : Activation.t) ->
            List.filter_map
              (fun (r : Activation.read) ->
                if Activation.IntSet.is_empty r.Activation.drops then None
                else Some r.Activation.chan)
              e.Activation.reads)
          w.Fair.cycle
      in
      (* A read of up to [n] messages that keeps one of them. *)
      let clean (r : Activation.read) =
        List.exists (Channel.equal_id r.Activation.chan) dropping
        &&
        match r.Activation.count with
        | Activation.Finite n -> Activation.IntSet.cardinal r.Activation.drops < n
        | Activation.All -> false
      in
      let drop_all (r : Activation.read) =
        match r.Activation.count with
        | Activation.Finite n when clean r ->
          { r with Activation.drops = Activation.IntSet.of_list (List.init n succ) }
        | _ -> r
      in
      let turned = ref false in
      let cycle =
        List.map
          (fun (e : Activation.t) ->
            if !turned || not (List.exists clean e.Activation.reads) then e
            else begin
              turned := true;
              { e with Activation.reads = List.map drop_all e.Activation.reads }
            end)
          w.Fair.cycle
      in
      if not !turned then Alcotest.fail "no clean read of a dropping channel";
      { w with Fair.cycle })

(* A witness with drops, replayed under the reliable model of the same
   shape: its drop-carrying entries are not entries of that model. *)
let test_tamper_reliable () =
  let reliable (m : Model.t) = { m with Model.rel = Model.Reliable } in
  let inst = Gadgets.bad_gadget and m = model "U1S" in
  List.iter
    (fun s ->
      let w = witness s.stack (s.analyze inst m) in
      Alcotest.(check bool) (s.stack ^ " witness drops") true (List.exists has_drops w.Fair.cycle);
      Alcotest.(check bool) (s.stack ^ " replays under R1S") false (s.verify inst (reliable m) w))
    stacks;
  let inst = Protocols.Gossip.make (Protocols.Topo.ring 4) and m = model "U1O" in
  let w = witness "gossip" (GG.analyze ~config:gossip_config inst m) in
  Alcotest.(check bool) "gossip witness replays" true (GG.verify_witness inst m w);
  Alcotest.(check bool) "gossip witness drops" true (List.exists has_drops w.Fair.prefix);
  Alcotest.(check bool) "gossip replays under R1O" false (GG.verify_witness inst (reliable m) w)

(* DISAGREE's RMS prefix followed by the round-robin polling cycle, which
   settles: the executor stops on a converged state, not a cycle. *)
let test_tamper_converging () =
  let inst = Gadgets.disagree and m = model "RMS" in
  let sched = Scheduler.round_robin inst m in
  let cycle = Scheduler.prefix (Option.get sched.Scheduler.period) sched in
  rejects_tampered inst m (fun w -> { w with Fair.cycle })

let () =
  Alcotest.run "protocols"
    [
      ( "pv-parity",
        [
          Alcotest.test_case "DISAGREE all 24" `Quick test_pv_parity_disagree;
          Alcotest.test_case "FIG6 all 24 (bounded)" `Quick test_pv_parity_fig6_bounded;
          Alcotest.test_case "FIG6 R1A/RMA deep" `Slow test_pv_parity_fig6_deep;
          Alcotest.test_case "witness replay" `Quick test_pv_witness_verifies;
          Alcotest.test_case "executor agreement" `Quick test_pv_executor_matches_legacy;
        ] );
      ( "stack-parity",
        [
          Alcotest.test_case "timed batch runs" `Quick test_stack_parity_timed;
          Alcotest.test_case "round-robin and synchronous schedules" `Quick
            test_stack_parity_schedules;
          Alcotest.test_case "validators" `Quick test_stack_parity_validators;
        ] );
      ( "gossip",
        [
          QCheck_alcotest.to_alcotest gossip_monotone;
          Alcotest.test_case "R converges / U diverges" `Quick test_gossip_verdicts;
          Alcotest.test_case "stuck cycle detected" `Quick test_gossip_cycle_detected;
          Alcotest.test_case "timed MRAI sweep" `Quick test_gossip_timed;
          Alcotest.test_case "work stealing matches sequential" `Quick
            test_gossip_work_stealing;
        ] );
      ( "push-sum",
        [
          Alcotest.test_case "mass conserved (R)" `Quick test_pushsum_mass_reliable;
          Alcotest.test_case "drops reconciled (U)" `Quick test_pushsum_drop_reconciliation;
          Alcotest.test_case "REA reaches the average" `Quick test_pushsum_converges;
          Alcotest.test_case "lossy loses mass" `Quick test_pushsum_lossy_loses_mass;
        ] );
      ( "generic",
        [
          Alcotest.test_case "round robin validates" `Quick test_generic_round_robin_validates;
          Alcotest.test_case "lossy model gating" `Quick
            test_generic_lossy_validates_unreliable_only;
          Alcotest.test_case "synchronous multi" `Quick test_generic_synchronous_validates_multi;
          Alcotest.test_case "per-node models" `Quick test_generic_hetero_model_of;
          Alcotest.test_case "well-formedness" `Quick test_generic_well_formed;
        ] );
      ( "tampered-witness",
        [
          Alcotest.test_case "a tracked channel unread" `Quick test_tamper_unread;
          Alcotest.test_case "a channel that only drops" `Quick test_tamper_only_drops;
          Alcotest.test_case "drops under a reliable model" `Quick test_tamper_reliable;
          Alcotest.test_case "a converging schedule" `Quick test_tamper_converging;
        ] );
    ]

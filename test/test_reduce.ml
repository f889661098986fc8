(* State-space reduction (Modelcheck.Reduce) and its integration with the
   explorer: verdict/assignment parity of POR against the exact
   exploration, witness replay under POR, the sequential-only mode guards,
   and the occupancy-cache invariant of the step and channel mutators. *)

open Spp
open Engine
open Modelcheck

let model s = Option.get (Model.of_string s)
let ring3 = Generator.symmetric_ring 3

(* ------------------------------------------------------------------ *)
(* The [--reduction] spellings: two, and no symmetry quotient. *)

let test_spellings () =
  List.iter
    (fun r ->
      Alcotest.(check bool) (Reduce.to_string r) true
        (Reduce.of_string (Reduce.to_string r) = Some r))
    Reduce.[ No_reduction; Por ];
  Alcotest.(check bool) "sym is not a reduction" true (Reduce.of_string "sym" = None)

(* ------------------------------------------------------------------ *)
(* Parity: POR must preserve the oscillation verdict and the reachable
   path-assignment set. *)

let assignment_set inst (g : Explore.graph) =
  Array.to_list g.Explore.states
  |> List.map (State.assignment inst)
  |> List.sort_uniq Assignment.compare

(* Checks one (instance, model, reduction) against the exact run.  Only
   clean unreduced explorations are compared: under truncation the kept
   subset is schedule-dependent, and when the exact run pruned a write the
   reduced run may legitimately reach a *stronger* verdict — POR's
   representative executions drain messages eagerly, so they can stay
   inside a channel bound the original schedule exceeded (DESIGN.md).
   When the exact run does report a pruning-proof oscillation under POR,
   the witness-replay test below still covers the reduced verdict. *)
let check_parity name inst ~config m =
  let exact = Explore.explore ~config ~domains:1 inst m in
  let reduced = Explore.explore ~config ~reduction:Reduce.Por ~domains:1 inst m in
  let tag = Printf.sprintf "%s/%s/por" name (Model.to_string m) in
  let verdict g = Oscillation.verdict_name (Oscillation.analyze_graph inst g) in
  if (not exact.Explore.pruned) && not exact.Explore.truncated then begin
    Alcotest.(check string) (tag ^ " verdict") (verdict exact) (verdict reduced);
    Alcotest.(check bool)
      (tag ^ " reduced is no larger") true
      (Array.length reduced.Explore.states <= Array.length exact.Explore.states);
    Alcotest.(check bool) (tag ^ " clean flags") false
      (reduced.Explore.pruned || reduced.Explore.truncated);
    let ea = assignment_set inst exact and ra = assignment_set inst reduced in
    Alcotest.(check int) (tag ^ " assignment set size") (List.length ea)
      (List.length ra);
    Alcotest.(check bool) (tag ^ " assignment sets equal") true
      (List.equal (fun a b -> Assignment.compare a b = 0) ea ra)
  end

let test_parity_gadgets () =
  (* DISAGREE runs at the default bound; RING3's unreliable-model spaces
     grow quickly with the bound, and bound 3 already exercises multi-slot
     channels and the ample drain conditions. *)
  List.iter
    (fun (name, inst, config) -> List.iter (check_parity name inst ~config) Model.all)
    [
      ("DISAGREE", Gadgets.disagree, Explore.default_config);
      ("RING3", ring3, { Explore.channel_bound = 3; max_states = 100_000 });
    ]

let prop_parity_generated =
  QCheck2.Test.make ~name:"reductions preserve verdict and assignments" ~count:4
    QCheck2.Gen.(int_range 0 9_999)
    (fun seed ->
      let inst =
        Generator.instance
          { Generator.default with nodes = 4; seed; extra_edges = 1; max_paths_per_node = 2 }
      in
      let config = { Explore.channel_bound = 2; max_states = 20_000 } in
      List.iter (check_parity (Printf.sprintf "GEN%d" seed) inst ~config) Model.all;
      true)

(* POR prunes schedules, never states a witness needs: every oscillation
   witness found through an ample-reduced graph must replay concretely. *)
let test_por_witness_replays () =
  List.iter
    (fun (name, inst) ->
      List.iter
        (fun m ->
          match Oscillation.analyze ~reduction:Reduce.Por ~domains:1 inst m with
          | Oscillation.Oscillates w ->
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s witness replays" name (Model.to_string m))
              true
              (Oscillation.verify_witness inst m w)
          | _ -> ())
        Model.all)
    [ ("DISAGREE", Gadgets.disagree); ("RING3", ring3) ]

(* The ample-set counter only moves under POR, and POR actually reduces
   the deep FIG6-class spaces (the acceptance bar for the bench gate is
   checked there against real wall-clock runs; here a cheaper case pins
   the mechanism). *)
let test_por_reduces_ring3 () =
  let m = model "UMS" in
  let count red =
    let metrics = Metrics.create () in
    let g = Explore.explore ~reduction:red ~domains:1 ~metrics ring3 m in
    (Array.length g.Explore.states, metrics)
  in
  let exact, m_exact = count Reduce.No_reduction in
  let reduced, m_por = count Reduce.Por in
  Alcotest.(check int) "no ample states without POR" 0 (Metrics.ample_states m_exact);
  Alcotest.(check bool) "POR expands some ample subsets" true
    (Metrics.ample_states m_por > 0);
  Alcotest.(check bool)
    (Printf.sprintf "POR shrinks RING3/UMS (%d -> %d)" exact reduced)
    true
    (reduced * 2 <= exact)

(* ------------------------------------------------------------------ *)
(* Sequential-only guards (checkpoint/resume):
   explicit parallelism is a typed error, environment-implied parallelism
   is a recorded downgrade. *)

let with_tmpdir f =
  let dir = Filename.temp_file "reduce_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p
      in
      if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let invalid_arg_raised f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_explicit_domains_rejected () =
  let inst = Gadgets.disagree in
  let m = model "UMS" in
  with_tmpdir (fun dir ->
      let ckpt = { Explore.path = Filename.concat dir "snap"; every = 5 } in
      Alcotest.(check bool) "domains>1 + checkpoint" true
        (invalid_arg_raised (fun () ->
             Explore.explore ~domains:3 ~checkpoint:ckpt inst m)))

let test_env_domains_downgraded () =
  let inst = Gadgets.disagree in
  let m = model "UMS" in
  let saved = Sys.getenv_opt "DOMAINS" in
  Unix.putenv "DOMAINS" "3";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "DOMAINS" (Option.value saved ~default:""))
    (fun () ->
      with_tmpdir (fun dir ->
          let metrics = Metrics.create () in
          let ckpt = { Explore.path = Filename.concat dir "snap"; every = 5 } in
          let g = Explore.explore ~metrics ~checkpoint:ckpt inst m in
          Alcotest.(check int) "explored fully" 39 (Array.length g.Explore.states);
          Alcotest.(check int) "ran on one domain" 1 (Metrics.domains metrics);
          match Metrics.downgrade metrics with
          | Some why ->
            Alcotest.(check bool) "downgrade names the env request" true
              (String.length why > 0)
          | None -> Alcotest.fail "env-implied parallelism downgrade not recorded"))

(* ------------------------------------------------------------------ *)
(* Checkpoint/resume under POR: the snapshot records the reduction, a
   resumed run continues it, and a mismatched resume is refused. *)

let test_checkpoint_records_reduction () =
  let inst = ring3 in
  let m = model "UMS" in
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "snap" in
      let ckpt = { Explore.path; every = 50 } in
      let g =
        Explore.explore ~reduction:Reduce.Por ~domains:1 ~checkpoint:ckpt inst m
      in
      Alcotest.(check bool) "checkpoint file written" true (Sys.file_exists path);
      let snap =
        match Snapshot.load ~path inst with
        | Ok s -> s
        | Error e -> Alcotest.failf "snapshot load: %s" (Snapshot.error_to_string e)
      in
      Alcotest.(check string) "snapshot records por" "por" snap.Snapshot.reduction;
      Alcotest.(check bool) "resume under another reduction refused" true
        (invalid_arg_raised (fun () -> Explore.explore ~domains:1 ~resume:snap inst m));
      let resumed =
        Explore.explore ~reduction:Reduce.Por ~domains:1 ~resume:snap inst m
      in
      Alcotest.(check int) "resumed run reaches the same graph"
        (Array.length g.Explore.states)
        (Array.length resumed.Explore.states))

(* ------------------------------------------------------------------ *)
(* The cached max-occupancy must survive every mutator: the step, and
   direct channel pushes and drops. *)

let prop_occupancy_cache_exact =
  QCheck2.Test.make ~name:"max_occupancy cache survives mutators" ~count:30
    QCheck2.Gen.(pair (int_range 0 9_999) (int_range 1 40))
    (fun (seed, steps) ->
      let inst = ring3 in
      let m = model "UMS" in
      let sched = Scheduler.random inst m ~seed in
      let entries = Scheduler.prefix steps sched in
      let final =
        List.fold_left
          (fun st entry ->
            let st = (Step.apply inst st entry).Step.state in
            if not (State.debug_occupancy_ok st) then
              QCheck2.Test.fail_report "stale occupancy after a step";
            st)
          (State.initial inst) entries
      in
      (* Direct channel surgery on the final state: push and drop keep the
         cache exact too. *)
      (match State.rho_bindings_id final with
      | (cid, pid) :: _ ->
        let pushed = State.push_channel final cid pid in
        if not (State.debug_occupancy_ok pushed) then
          QCheck2.Test.fail_report "stale occupancy after push_channel";
        let dropped = State.drop_first_channel pushed cid 1 in
        if not (State.debug_occupancy_ok dropped) then
          QCheck2.Test.fail_report "stale occupancy after drop_first_channel"
      | [] -> ());
      true)

let () =
  Alcotest.run "reduce"
    [
      ("spellings", [ Alcotest.test_case "none and por only" `Quick test_spellings ]);
      ( "parity",
        Alcotest.test_case "gadgets, 24 models" `Slow test_parity_gadgets
        :: Alcotest.test_case "POR witnesses replay" `Quick test_por_witness_replays
        :: Alcotest.test_case "POR reduces RING3" `Quick test_por_reduces_ring3
        :: List.map QCheck_alcotest.to_alcotest [ prop_parity_generated ] );
      ( "sequential-only guards",
        [
          Alcotest.test_case "explicit domains rejected" `Quick
            test_explicit_domains_rejected;
          Alcotest.test_case "env domains downgraded" `Quick
            test_env_domains_downgraded;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "snapshot records reduction" `Quick
            test_checkpoint_records_reduction;
        ] );
      ( "occupancy cache",
        List.map QCheck_alcotest.to_alcotest [ prop_occupancy_cache_exact ] );
    ]

(* The protocol sweep: gossip and push-sum under all 24 communication
   models, on ring/star/complete topologies, emitting the committed
   machine-readable artifact results/BENCH_protocols.json (schema
   commrouting/bench_protocols/v1).

   Three sections per artifact:
   - "cases": canonical fair executor runs (round robin; plus the
     deterministic lossy round robin for unreliable models) with stop
     reason, step/message/drop counts and — for push-sum — the mass
     ledger: initial mass, final mass (locals + in-flight), mass carried
     by dropped messages, and the worst per-node estimate error.  The
     ledger is the point: reliable models conserve mass exactly, lossy
     unreliable runs lose exactly what their drops carried.
   - "verdicts": exhaustive gossip verdicts per (topology, model) from
     the generic explorer, with state counts.
   - "timed": the MRAI/timed wrapper sweep, finish times and message
     counts per activation interval.

   Everything recorded except wall_s is deterministic (sequential runs,
   no RNG, pure float arithmetic), so CI gates a fresh smoke sweep
   against the committed artifact with --compare-ignoring-timings. *)

open Engine
module Json = Metrics.Json

module EG = Generic.Make (Protocols.Gossip)
module EPS = Generic.Make (Protocols.Pushsum)
module GX = Modelcheck.Gexplore.Make (Protocols.Gossip)

let schema = "commrouting/bench_protocols/v1"

(* ------------------------------------------------------------------ *)
(* Budgets.  The committed artifact is the smoke budget, so the CI gate
   compares like against like; --budget full widens topologies and step
   caps for manual runs. *)

type budget = Smoke | Full

let budget_name = function Smoke -> "smoke" | Full -> "full"

let topologies = function
  | Smoke -> [ Protocols.Topo.ring 4; Protocols.Topo.star 4; Protocols.Topo.complete 4 ]
  | Full ->
    [
      Protocols.Topo.ring 4;
      Protocols.Topo.star 4;
      Protocols.Topo.complete 4;
      Protocols.Topo.ring 6;
      Protocols.Topo.star 6;
      Protocols.Topo.complete 5;
    ]

(* Exhaustive gossip verdicts are only computed where the bounded state
   space stays tractable: under the M_one models a 5-clique's message
   interleavings blow past 200k states and the truncated graph can only
   answer "unknown", so complete5 appears in the executor and timed
   sweeps but not the verdict sweep. *)
let verdict_topologies = function
  | Smoke -> topologies Smoke
  | Full -> topologies Smoke @ [ Protocols.Topo.ring 6; Protocols.Topo.star 6 ]

let max_steps = function Smoke -> 2_000 | Full -> 20_000

let explore_config = function
  | Smoke -> { Modelcheck.Explore.channel_bound = 2; max_states = 20_000 }
  | Full -> { Modelcheck.Explore.channel_bound = 2; max_states = 20_000 }

let lossy_every = 3
let intervals = [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Executor cases. *)

type mass_ledger = {
  mass_initial : float;
  mass_final : float;
  mass_dropped : float;
  est_err : float;  (** worst per-node |s/w - avg| in the final state *)
}

type case = {
  protocol : string;
  topology : string;
  n : int;
  model : Model.t;
  schedule : string;  (** "round-robin" or "lossy-every-3" *)
  stop : string;
  steps : int;
  messages : int;
  drops : int;
  converged : bool;
  wall_s : float;
  mass : mass_ledger option;  (** push-sum only *)
}

let stop_name = function
  | Executor.Converged -> "converged"
  | Executor.Cycle _ -> "cycle"
  | Executor.Exhausted -> "exhausted"

let schedules_for (m : Model.t) =
  match m.Model.rel with
  | Model.Reliable -> [ `Plain ]
  | Model.Unreliable -> [ `Plain; `Lossy ]

let schedule_name = function
  | `Plain -> "round-robin"
  | `Lossy -> Printf.sprintf "lossy-every-%d" lossy_every

(* One executor run's row; both protocols' executors share the stop type. *)
let exec_row protocol (topo : Protocols.Topo.t) m kind ~stop ~steps ~messages ~drops ~t0 mass =
  {
    protocol;
    topology = topo.Protocols.Topo.name;
    n = topo.Protocols.Topo.n;
    model = m;
    schedule = schedule_name kind;
    stop = stop_name stop;
    steps;
    messages;
    drops;
    converged = stop = Executor.Converged;
    wall_s = Unix.gettimeofday () -. t0;
    mass;
  }

let run_gossip ~max_steps topo m kind =
  let inst = Protocols.Gossip.make topo in
  let sched =
    match kind with
    | `Plain -> Scheduler.round_robin_of (EG.view inst) m
    | `Lossy -> EG.round_robin_lossy ~every:lossy_every inst m
  in
  let t0 = Unix.gettimeofday () in
  let { EG.Executor.stop; steps; messages; drops; _ } = EG.Executor.run ~max_steps inst sched in
  exec_row "gossip" topo m kind ~stop ~steps ~messages ~drops ~t0 None

(* Total push-sum mass: locals plus in-flight payloads. *)
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

let run_pushsum ~max_steps topo m kind =
  let inst = Protocols.Pushsum.linear topo in
  let sched =
    match kind with
    | `Plain -> Scheduler.round_robin_of (EPS.view inst) m
    | `Lossy -> EPS.round_robin_lossy ~every:lossy_every inst m
  in
  let initial = ps_mass inst (EPS.State.initial inst) in
  let dropped = ref 0. in
  let on_step (r : EPS.Executor.step_record) =
    List.iter
      (fun (_, msgs) ->
        List.iter
          (fun msg -> dropped := !dropped +. fst (Protocols.Pushsum.payload msg))
          msgs)
      r.EPS.Executor.outcome.EPS.Step.dropped
  in
  let t0 = Unix.gettimeofday () in
  let r = EPS.Executor.run ~max_steps ~on_step inst sched in
  let avg = Protocols.Pushsum.average inst in
  let est_err =
    List.fold_left
      (fun acc v ->
        let l = EPS.State.local r.EPS.Executor.final v in
        if l.Protocols.Pushsum.w > 0. then
          Float.max acc (Float.abs ((l.Protocols.Pushsum.s /. l.Protocols.Pushsum.w) -. avg))
        else acc)
      0.
      (Protocols.Pushsum.nodes inst)
  in
  let { EPS.Executor.stop; steps; messages; drops; final } = r in
  exec_row "push-sum" topo m kind ~stop ~steps ~messages ~drops ~t0
    (Some
       { mass_initial = initial; mass_final = ps_mass inst final; mass_dropped = !dropped; est_err })

let run_cases budget =
  let ms = max_steps budget in
  List.concat_map
    (fun topo ->
      List.concat_map
        (fun m ->
          List.concat_map
            (fun kind ->
              [ run_gossip ~max_steps:ms topo m kind; run_pushsum ~max_steps:ms topo m kind ])
            (schedules_for m))
        Model.all)
    (topologies budget)

(* ------------------------------------------------------------------ *)
(* Exhaustive gossip verdicts. *)

type verdict_row = {
  v_topology : string;
  v_n : int;
  v_model : Model.t;
  v_verdict : string;
  v_states : int;
  v_pruned : bool;
  v_truncated : bool;
}

let run_verdicts budget =
  let config = explore_config budget in
  List.concat_map
    (fun topo ->
      let inst = Protocols.Gossip.make topo in
      List.map
        (fun m ->
          let g = GX.explore ~config inst m in
          {
            v_topology = topo.Protocols.Topo.name;
            v_n = topo.Protocols.Topo.n;
            v_model = m;
            v_verdict = GX.verdict_name (GX.analyze_graph inst g);
            v_states = Array.length g.GX.states;
            v_pruned = g.GX.pruned;
            v_truncated = g.GX.truncated;
          })
        Model.all)
    (verdict_topologies budget)

(* ------------------------------------------------------------------ *)
(* Timed (MRAI) sweep. *)

type timed_row = {
  t_protocol : string;
  t_topology : string;
  t_n : int;
  t_interval : int;
  t_converged : bool;
  t_finish : int;
  t_messages : int;
  t_activations : int;
}

let run_timed budget =
  let rows protocol topo sweep =
    List.map
      (fun (i, (r : _ Timed.result)) ->
        {
          t_protocol = protocol;
          t_topology = topo.Protocols.Topo.name;
          t_n = topo.Protocols.Topo.n;
          t_interval = i;
          t_converged = r.Timed.converged;
          t_finish = r.Timed.finish_time;
          t_messages = r.Timed.messages;
          t_activations = r.Timed.activations;
        })
      sweep
  in
  List.concat_map
    (fun topo ->
      rows "gossip" topo (Timed.mrai_sweep ~intervals (EG.timed (Protocols.Gossip.make topo)))
      @ rows "push-sum" topo
          (Timed.mrai_sweep ~intervals (EPS.timed (Protocols.Pushsum.linear topo))))
    (topologies budget)

(* ------------------------------------------------------------------ *)
(* JSON emission. *)

let json_of_case c =
  Json.Obj
    ([
       ("protocol", Json.Str c.protocol);
       ("topology", Json.Str c.topology);
       ("n", Json.Num (float_of_int c.n));
       ("model", Json.Str (Model.to_string c.model));
       ("schedule", Json.Str c.schedule);
       ("stop", Json.Str c.stop);
       ("steps", Json.Num (float_of_int c.steps));
       ("messages", Json.Num (float_of_int c.messages));
       ("drops", Json.Num (float_of_int c.drops));
       ("converged", Json.Bool c.converged);
       ("wall_s", Json.Num c.wall_s);
     ]
    @
    match c.mass with
    | None -> []
    | Some m ->
      [
        ("mass_initial", Json.Num m.mass_initial);
        ("mass_final", Json.Num m.mass_final);
        ("mass_dropped", Json.Num m.mass_dropped);
        ("est_err", Json.Num m.est_err);
      ])

let json_of_verdict v =
  Json.Obj
    [
      ("protocol", Json.Str "gossip");
      ("topology", Json.Str v.v_topology);
      ("n", Json.Num (float_of_int v.v_n));
      ("model", Json.Str (Model.to_string v.v_model));
      ("verdict", Json.Str v.v_verdict);
      ("states", Json.Num (float_of_int v.v_states));
      ("pruned", Json.Bool v.v_pruned);
      ("truncated", Json.Bool v.v_truncated);
    ]

let json_of_timed t =
  Json.Obj
    [
      ("protocol", Json.Str t.t_protocol);
      ("topology", Json.Str t.t_topology);
      ("n", Json.Num (float_of_int t.t_n));
      ("interval", Json.Num (float_of_int t.t_interval));
      ("converged", Json.Bool t.t_converged);
      ("finish_time", Json.Num (float_of_int t.t_finish));
      ("messages", Json.Num (float_of_int t.t_messages));
      ("activations", Json.Num (float_of_int t.t_activations));
      (* Timed reads carry no drop sets. *)
      ("drops", Json.Num 0.);
    ]

let to_json ~budget cases verdicts timed =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("budget", Json.Str (budget_name budget));
      ("cases", Json.List (List.map json_of_case cases));
      ("verdicts", Json.List (List.map json_of_verdict verdicts));
      ("timed", Json.List (List.map json_of_timed timed));
    ]

(* ------------------------------------------------------------------ *)
(* The artifact as the comparer sees it (see Kit): identical after
   blanking wall-clock measurements, unknown fields are an error. *)

let artifact =
  {
    Kit.schema;
    volatile_keys = [ "wall_s" ];
    known_keys =
      [
        (* top level *)
        "schema";
        "budget";
        "cases";
        "verdicts";
        "timed";
        (* cases *)
        "protocol";
        "topology";
        "n";
        "model";
        "schedule";
        "stop";
        "steps";
        "messages";
        "drops";
        "converged";
        "mass_initial";
        "mass_final";
        "mass_dropped";
        "est_err";
        (* verdicts *)
        "verdict";
        "states";
        "pruned";
        "truncated";
        (* timed *)
        "interval";
        "finish_time";
        "activations";
      ];
    opaque_keys = [];
  }

(* ------------------------------------------------------------------ *)
(* Semantic gates: beyond diffing against the committed artifact, the
   sweep itself must uphold the protocols' contracts. *)

let tolerance = 1e-6

let gate_failures cases verdicts =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  List.iter
    (fun c ->
      let tag =
        Printf.sprintf "%s/%s-%d/%s/%s" c.protocol c.topology c.n
          (Model.to_string c.model) c.schedule
      in
      (* Gossip floods in finitely many announcements: the canonical fair
         dropless round robin must converge under every model. *)
      if c.protocol = "gossip" && c.schedule = "round-robin" && not c.converged then
        fail "%s: dropless round robin did not converge (%s)" tag c.stop;
      match c.mass with
      | None -> ()
      | Some m ->
        (* The mass ledger must balance: conservation when nothing was
           dropped, exact reconciliation otherwise. *)
        let deficit = m.mass_initial -. (m.mass_final +. m.mass_dropped) in
        if Float.abs deficit > tolerance then
          fail "%s: mass leak %.3e not accounted by drops" tag deficit;
        if c.drops = 0 && Float.abs (m.mass_initial -. m.mass_final) > tolerance then
          fail "%s: mass changed without drops" tag)
    cases;
  List.iter
    (fun v ->
      let tag = Printf.sprintf "gossip/%s-%d/%s" v.v_topology v.v_n (Model.to_string v.v_model) in
      match (v.v_model.Model.rel, v.v_verdict) with
      | Model.Reliable, "converges" | Model.Unreliable, "diverges" -> ()
      | _, verdict ->
        fail "%s: verdict %s contradicts the reliability split" tag verdict)
    verdicts;
  List.rev !fails

(* ------------------------------------------------------------------ *)

let pp_summary ppf (cases, verdicts, timed) =
  List.iter
    (fun c ->
      Fmt.pf ppf "  %-8s %-8s n=%d %-4s %-14s steps=%-5d msgs=%-5d drops=%-4d %s%s@."
        c.protocol c.topology c.n (Model.to_string c.model) c.schedule c.steps
        c.messages c.drops c.stop
        (match c.mass with
        | Some m when m.mass_dropped > 0. ->
          Printf.sprintf " (mass dropped %.3f)" m.mass_dropped
        | _ -> ""))
    cases;
  Fmt.pf ppf "  gossip verdicts: %d converges, %d diverges@."
    (List.length (List.filter (fun v -> v.v_verdict = "converges") verdicts))
    (List.length (List.filter (fun v -> v.v_verdict = "diverges") verdicts));
  Fmt.pf ppf "  timed rows: %d (intervals %s)@." (List.length timed)
    (String.concat "," (List.map string_of_int intervals))

let emit ~budget ~path =
  let cases = run_cases budget in
  let verdicts = run_verdicts budget in
  let timed = run_timed budget in
  let parse_failure = Kit.write_artifact path (to_json ~budget cases verdicts timed) in
  ((cases, verdicts, timed), parse_failure @ gate_failures cases verdicts)

(* ------------------------------------------------------------------ *)

let () =
  let path = ref "BENCH_protocols.json" in
  let budget = ref Smoke in
  let flags =
    [
      Kit.output path;
      Kit.budget budget budget_name [ Smoke; Full ]
        "smoke: the committed artifact's n=4 topologies; full adds n=5/6 and a 20k step cap";
    ]
  in
  Kit.run ~artifact ~flags "bench_protocols" @@ fun () ->
  let results, failures = emit ~budget:!budget ~path:!path in
  Fmt.pr "protocol sweep (%s budget):@.%a" (budget_name !budget) pp_summary results;
  Fmt.pr "wrote %s@." !path;
  if failures <> [] then begin
    List.iter (fun f -> Printf.eprintf "bench_protocols: %s\n" f) failures;
    Kit.gate_failed ()
  end

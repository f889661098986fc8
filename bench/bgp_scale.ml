(* Partitioned internet-scale BGP sweep: the sharded simulator
   (Bgp.Shard) over generated AS hierarchies, emitting the committed
   machine-readable artifact results/BENCH_bgp.json (schema
   commrouting/bench_bgp/v1).

   Sections:
   - "topologies": the generated graphs (node/link counts, digest) and
     the partition quality at the swept shard count (cut edges,
     imbalance).
   - "parity": on a small topology every sampled (model, shard count)
     run is checked against the legacy engine pipeline (Simulate.run on
     the compiled SPP instance).  Wheel-free Gao-Rexford instances have
     a unique stable solution, so the final assignments must be equal —
     any mismatch fails the run.
   - "cases": the scaled sweep.  Per (topology, model, shards):
     convergence, epochs, activation/message/flush/drop counts and the
     route digest.  All of it is deterministic — independent of worker
     count and machine — so CI regenerates the artifact and diffs it
     against the committed one with --compare-ignoring-timings.  Within
     a (topology, model) the route digests of every shard count must
     agree (the K-shard fixpoint is the 1-shard fixpoint).
   - "speedup": wall-clock of the K-shard parallel run against the
     1-shard run, per model on the largest topology.  Volatile (timing),
     and honest: when the worker pool never engages (1 worker or 1 core)
     the artifact carries degraded=true and --min-speedup does not
     gate — a 1-core container records its truth instead of fabricating
     a speedup.

   A killed sweep resumes: --checkpoint journals each finished case
   (conformance's Generic journal: append-only, crash-tolerant,
   fingerprinted by the sweep configuration) and --resume replays the
   journal instead of re-running finished cases. *)

open Engine
module Json = Metrics.Json
module Journal = Conformance.Journal.Generic

let schema = "commrouting/bench_bgp/v1"
let journal_magic = "commrouting/bench_bgp_journal/v1"

(* ------------------------------------------------------------------ *)
(* Budgets. *)

type budget = Smoke | Default | Deep

let budget_name = function Smoke -> "smoke" | Default -> "default" | Deep -> "deep"

let scaled_small =
  { Bgp.Topology.s_tier1 = 4; s_tier2 = 40; s_stubs = 400; s_peer_links = 30; s_seed = 3 }

let scaled_10k = Bgp.Topology.default_scaled_config

let scaled_100k =
  { Bgp.Topology.default_scaled_config with s_tier2 = 4_000; s_stubs = 96_000; s_peer_links = 2_000 }

(* The 100k block samples the corners of the model grid (both
   reliability rows, the O/S/A message columns across neighbor minors)
   rather than all 24; the 10k block covers the full grid. *)
let corner_models =
  List.filter_map Model.of_string [ "R1O"; "RMS"; "REA"; "RMA"; "U1O"; "UMS"; "UEA"; "UMA" ]

(* (tag, config) blocks per budget; every block is swept over the model
   list with shard counts [1; K]. *)
let blocks budget =
  match budget with
  | Smoke -> [ ("scaled-small", scaled_small, Model.all) ]
  | Default -> [ ("scaled-10k", scaled_10k, Model.all) ]
  | Deep -> [ ("scaled-10k", scaled_10k, Model.all); ("scaled-100k", scaled_100k, corner_models) ]

let default_shards = function Smoke -> 2 | Default | Deep -> 8

(* ------------------------------------------------------------------ *)
(* Cases. *)

type case = {
  topology : string;
  model : Model.t;
  shards : int;
  batching : string;
  lossy_every : int;
  converged : bool;
  epochs : int;
  activations : int;
  messages : int;
  cross_messages : int;
  flushes : int;
  drops : int;
  digest : string;
  pool_engaged : bool;
  wall_s : float;
}

let batching_name = function
  | Bgp.Shard.Per_epoch -> "epoch"
  | Bgp.Shard.Every n -> string_of_int n

let case_key tag model shards = Printf.sprintf "%s/%s/%d" tag (Model.to_string model) shards

(* Repeats keep the best wall time and must agree on the route digest. *)
let run_case ~workers ~seed ~batch ~repeat tag topo model shards =
  let cfg =
    { (Bgp.Shard.config_for ~shards ~workers ?batching:batch model) with Bgp.Shard.seed }
  in
  let r, wall_s =
    Kit.best_of ~repeat ~digest:Bgp.Shard.route_digest (case_key tag model shards) (fun () ->
        Bgp.Shard.run cfg topo ~dest:(Bgp.Topology.size topo - 1))
  in
  {
    topology = tag;
    model;
    shards;
    batching = batching_name cfg.Bgp.Shard.batching;
    lossy_every = cfg.Bgp.Shard.lossy_every;
    converged = r.Bgp.Shard.converged;
    epochs = r.Bgp.Shard.epochs;
    activations = r.Bgp.Shard.activations;
    messages = r.Bgp.Shard.messages;
    cross_messages = r.Bgp.Shard.cross_messages;
    flushes = r.Bgp.Shard.flushes;
    drops = r.Bgp.Shard.drops;
    digest = Bgp.Shard.route_digest r;
    pool_engaged = r.Bgp.Shard.pool_engaged;
    wall_s;
  }

(* ------------------------------------------------------------------ *)
(* Journal codec: one record per finished case. *)

let record_of_case c =
  [
    c.topology;
    Model.to_string c.model;
    string_of_int c.shards;
    c.batching;
    string_of_int c.lossy_every;
    (if c.converged then "1" else "0");
    string_of_int c.epochs;
    string_of_int c.activations;
    string_of_int c.messages;
    string_of_int c.cross_messages;
    string_of_int c.flushes;
    string_of_int c.drops;
    c.digest;
    (if c.pool_engaged then "1" else "0");
    Printf.sprintf "%.6f" c.wall_s;
  ]

let case_of_record = function
  | [
      topology; model; shards; batching; lossy; converged; epochs; activations; messages;
      cross; flushes; drops; digest; pool; wall;
    ] -> (
    match Model.of_string model with
    | None -> None
    | Some model -> (
      try
        Some
          {
            topology;
            model;
            shards = int_of_string shards;
            batching;
            lossy_every = int_of_string lossy;
            converged = converged = "1";
            epochs = int_of_string epochs;
            activations = int_of_string activations;
            messages = int_of_string messages;
            cross_messages = int_of_string cross;
            flushes = int_of_string flushes;
            drops = int_of_string drops;
            digest;
            pool_engaged = pool = "1";
            wall_s = float_of_string wall;
          }
      with Failure _ -> None))
  | _ -> None

(* The journal only resumes a sweep over the same case set: budget,
   topologies, models, shard counts, partition seed and batching
   override all participate in the fingerprint.  Worker count and
   repeat count do not — they change only timings. *)
let fingerprint ~budget ~shard_k ~seed ~batch topos =
  let b = Buffer.create 256 in
  Buffer.add_string b schema;
  Buffer.add_string b (budget_name budget);
  Buffer.add_string b (string_of_int shard_k);
  Buffer.add_string b (string_of_int seed);
  Buffer.add_string b (match batch with None -> "-" | Some bt -> batching_name bt);
  List.iter
    (fun (tag, topo, models) ->
      Buffer.add_string b tag;
      Buffer.add_string b (Bgp.Topology.digest topo);
      List.iter (fun m -> Buffer.add_string b (Model.to_string m)) models)
    topos;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Legacy-engine parity on a compilable topology. *)

type parity_row = {
  p_model : Model.t;
  p_shards : int;
  p_legacy_steps : int;
  p_legacy_messages : int;
  p_epochs : int;
  p_match : bool;
}

let parity_shards = [ 1; 2; 4 ]

let run_parity () =
  let topo =
    Bgp.Topology.generate { Bgp.Topology.tier1 = 3; tier2 = 5; stubs = 8; seed = 42 }
  in
  let dest = Bgp.Topology.size topo - 1 in
  let inst = Bgp.Policy.compile topo ~dest in
  List.concat_map
    (fun model ->
      let legacy = Bgp.Simulate.run topo ~dest ~model ~scheduler:Scheduler.round_robin in
      List.map
        (fun shards ->
          let cfg = Bgp.Shard.config_for ~shards model in
          let r = Bgp.Shard.run cfg topo ~dest in
          {
            p_model = model;
            p_shards = shards;
            p_legacy_steps = legacy.Bgp.Simulate.steps;
            p_legacy_messages = legacy.Bgp.Simulate.messages;
            p_epochs = r.Bgp.Shard.epochs;
            p_match =
              r.Bgp.Shard.converged && legacy.Bgp.Simulate.converged
              && Spp.Assignment.equal (Bgp.Shard.assignment inst r)
                   legacy.Bgp.Simulate.assignment;
          })
        parity_shards)
    Model.all

(* ------------------------------------------------------------------ *)
(* JSON emission. *)

type topo_row = {
  t_tag : string;
  t_nodes : int;
  t_links : int;
  t_digest : string;
  t_cut : int;
  t_imbalance : float;
}

let topo_row ~shard_k ~seed (tag, topo, _) =
  let part = Bgp.Partition.make ~seed ~shards:shard_k topo in
  {
    t_tag = tag;
    t_nodes = Bgp.Topology.size topo;
    t_links = List.length (Bgp.Topology.edges topo);
    t_digest = Bgp.Topology.digest topo;
    t_cut = Bgp.Partition.cut_edges part;
    t_imbalance = Bgp.Partition.imbalance part;
  }

type speedup_row = { s_topology : string; s_model : Model.t; s_speedup : float }

(* Speedup per (largest topology, model): wall of the 1-shard case over
   the wall of the K-shard case.  Volatile by construction. *)
let speedups cases =
  let largest =
    List.fold_left
      (fun acc (t : topo_row) -> if t.t_nodes > snd acc then (t.t_tag, t.t_nodes) else acc)
      ("", 0)
  in
  fun topo_rows ->
    let tag = fst (largest topo_rows) in
    List.filter_map
      (fun c ->
        if c.topology = tag && c.shards > 1 then
          match
            List.find_opt (fun c1 -> c1.topology = tag && c1.model = c.model && c1.shards = 1) cases
          with
          | Some c1 when c.wall_s > 0. ->
            Some { s_topology = tag; s_model = c.model; s_speedup = c1.wall_s /. c.wall_s }
          | _ -> None
        else None)
      cases

let geomean = function
  | [] -> 0.
  | l ->
    exp (List.fold_left (fun acc s -> acc +. log (Float.max 1e-9 s.s_speedup)) 0. l
        /. float_of_int (List.length l))

let json_of_case c =
  Json.Obj
    [
      ("topology", Json.Str c.topology);
      ("model", Json.Str (Model.to_string c.model));
      ("shards", Json.Num (float_of_int c.shards));
      ("batching", Json.Str c.batching);
      ("lossy_every", Json.Num (float_of_int c.lossy_every));
      ("converged", Json.Bool c.converged);
      ("epochs", Json.Num (float_of_int c.epochs));
      ("activations", Json.Num (float_of_int c.activations));
      ("messages", Json.Num (float_of_int c.messages));
      ("cross_messages", Json.Num (float_of_int c.cross_messages));
      ("flushes", Json.Num (float_of_int c.flushes));
      ("drops", Json.Num (float_of_int c.drops));
      ("route_digest", Json.Str c.digest);
      ("pool_engaged", Json.Bool c.pool_engaged);
      ("wall_s", Json.Num c.wall_s);
    ]

let json_of_parity p =
  Json.Obj
    [
      ("model", Json.Str (Model.to_string p.p_model));
      ("shards", Json.Num (float_of_int p.p_shards));
      ("legacy_steps", Json.Num (float_of_int p.p_legacy_steps));
      ("legacy_messages", Json.Num (float_of_int p.p_legacy_messages));
      ("epochs", Json.Num (float_of_int p.p_epochs));
      ("match", Json.Bool p.p_match);
    ]

let json_of_topo t =
  Json.Obj
    [
      ("tag", Json.Str t.t_tag);
      ("nodes", Json.Num (float_of_int t.t_nodes));
      ("links", Json.Num (float_of_int t.t_links));
      ("digest", Json.Str t.t_digest);
      ("cut_edges", Json.Num (float_of_int t.t_cut));
      ("imbalance", Json.Num t.t_imbalance);
    ]

let json_of_speedup s =
  Json.Obj
    [
      ("topology", Json.Str s.s_topology);
      ("model", Json.Str (Model.to_string s.s_model));
      ("speedup", Json.Num s.s_speedup);
    ]

let to_json ~budget ~shard_k ~seed ~workers ~cores ~degraded topo_rows parity cases sp =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("budget", Json.Str (budget_name budget));
      ("shard_k", Json.Num (float_of_int shard_k));
      ("seed", Json.Num (float_of_int seed));
      ("workers", Json.Num (float_of_int workers));
      ("cores", Json.Num (float_of_int cores));
      ("degraded", Json.Bool degraded);
      ("topologies", Json.List (List.map json_of_topo topo_rows));
      ("parity", Json.List (List.map json_of_parity parity));
      ("cases", Json.List (List.map json_of_case cases));
      ("speedup", Json.List (List.map json_of_speedup sp));
      ("speedup_geomean", Json.Num (geomean sp));
    ]

(* ------------------------------------------------------------------ *)
(* The artifact as the comparer sees it (see Kit): identical after
   blanking machine-dependent measurements, unknown fields are an error. *)

let artifact =
  {
    Kit.schema;
    volatile_keys =
      [ "wall_s"; "workers"; "cores"; "degraded"; "pool_engaged"; "speedup"; "speedup_geomean" ];
    known_keys =
      [
        "schema";
        "budget";
        "shard_k";
        "seed";
        "topologies";
        "parity";
        "cases";
        (* topologies *)
        "tag";
        "nodes";
        "links";
        "digest";
        "cut_edges";
        "imbalance";
        (* parity *)
        "model";
        "shards";
        "legacy_steps";
        "legacy_messages";
        "epochs";
        "match";
        (* cases *)
        "topology";
        "batching";
        "lossy_every";
        "converged";
        "activations";
        "messages";
        "cross_messages";
        "flushes";
        "drops";
        "route_digest";
      ];
    opaque_keys = [];
  }

(* ------------------------------------------------------------------ *)
(* Gates. *)

let gate_failures parity cases =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  List.iter
    (fun p ->
      if not p.p_match then
        fail "parity: %d-shard run disagrees with the legacy engine under %s" p.p_shards
          (Model.to_string p.p_model))
    parity;
  List.iter
    (fun c ->
      if not c.converged then
        fail "%s: did not converge within the epoch budget" (case_key c.topology c.model c.shards))
    cases;
  (* route digests must agree across shard counts of a (topology, model) *)
  List.iter
    (fun c ->
      if c.shards > 1 then
        match
          List.find_opt
            (fun c1 -> c1.topology = c.topology && c1.model = c.model && c1.shards = 1)
            cases
        with
        | Some c1 when c1.digest <> c.digest ->
          fail "%s: %d-shard routes differ from the 1-shard fixpoint"
            (case_key c.topology c.model c.shards)
            c.shards
        | _ -> ())
    cases;
  List.rev !fails

(* ------------------------------------------------------------------ *)

let pp_summary ppf (topo_rows, parity, cases, sp, degraded) =
  List.iter
    (fun t ->
      Fmt.pf ppf "  %-12s %6d nodes %6d links  cut=%-5d imbalance=%.2f@." t.t_tag t.t_nodes
        t.t_links t.t_cut t.t_imbalance)
    topo_rows;
  Fmt.pf ppf "  parity: %d/%d (model, shards) runs match the legacy engine@."
    (List.length (List.filter (fun p -> p.p_match) parity))
    (List.length parity);
  List.iter
    (fun c ->
      Fmt.pf ppf
        "  %-12s %-4s K=%-2d batch=%-5s epochs=%-6d acts=%-8d msgs=%-8d cross=%-7d \
         drops=%-5d %s@."
        c.topology (Model.to_string c.model) c.shards c.batching c.epochs c.activations
        c.messages c.cross_messages c.drops
        (if c.converged then "converged" else "STUCK"))
    cases;
  if sp <> [] then
    Fmt.pf ppf "  speedup (largest topology, K-shard vs 1-shard): geomean %.2fx%s@."
      (geomean sp)
      (if degraded then " [degraded: no parallel capacity, not a parallel speedup]" else "")

let emit ~budget ~shard_k ~seed ~workers ~batch ~repeat ~models_filter
    ~(checkpoint : Kit.checkpoint) ~path =
  let restrict models =
    match models_filter with
    | None -> models
    | Some keep -> List.filter (fun m -> List.exists (Model.equal m) keep) models
  in
  let built =
    List.filter_map
      (fun (tag, cfg, models) ->
        match restrict models with
        | [] -> None
        | models -> Some (tag, Bgp.Topology.generate_scaled cfg, models))
      (blocks budget)
  in
  if built = [] then Kit.inputf "--models filtered every case away";
  let journal =
    match checkpoint.path with
    | None -> None
    | Some jpath ->
      let fp = fingerprint ~budget ~shard_k ~seed ~batch built in
      let writer, records =
        Journal.open_ ~path:jpath ~magic:journal_magic ~fingerprint:fp
          ~resume:checkpoint.resume ~flush_every:checkpoint.every
      in
      let done_ = Hashtbl.create 64 in
      List.iter
        (fun r ->
          match case_of_record r with
          | Some c -> Hashtbl.replace done_ (case_key c.topology c.model c.shards) c
          | None -> ())
        records;
      Some (writer, done_)
  in
  let resumed = ref 0 in
  let run_or_replay tag topo model shards =
    let key = case_key tag model shards in
    match journal with
    | Some (_, done_) when Hashtbl.mem done_ key ->
      incr resumed;
      Hashtbl.find done_ key
    | _ ->
      let c = run_case ~workers ~seed ~batch ~repeat tag topo model shards in
      (match journal with
      | Some (writer, _) -> Journal.record writer (record_of_case c)
      | None -> ());
      c
  in
  let cases =
    List.concat_map
      (fun (tag, topo, models) ->
        List.concat_map
          (fun model -> List.map (run_or_replay tag topo model) [ 1; shard_k ])
          models)
      built
  in
  (match journal with Some (writer, _) -> Journal.close writer | None -> ());
  let parity = run_parity () in
  let topo_rows = List.map (topo_row ~shard_k ~seed) built in
  let sp = speedups cases topo_rows in
  let cores = Domain.recommended_domain_count () in
  (* degraded: the measured "speedup" is not a parallel speedup — either
     the pool never ran (1 worker) or there is no second core to run it
     on.  Recorded as-is; never dressed up. *)
  let degraded = (not (List.exists (fun c -> c.pool_engaged) cases)) || cores < 2 in
  let parse_failure =
    Kit.write_artifact path
      (to_json ~budget ~shard_k ~seed ~workers ~cores ~degraded topo_rows parity cases sp)
  in
  ((topo_rows, parity, cases, sp, degraded), !resumed, parse_failure @ gate_failures parity cases)

(* ------------------------------------------------------------------ *)

let () =
  let path = ref "BENCH_bgp.json" in
  let budget = ref Default in
  let models = ref None in
  let shard_k = ref None in
  let workers = ref 1 in
  let seed = ref 0 in
  let batch = ref None in
  let repeat = ref 1 in
  let min_speedup = ref None in
  let checkpoint_flags, checkpoint = Kit.checkpoint ~unit:"finished cases" ~every:1 in
  let flags =
    [
      Kit.output path;
      Kit.budget budget budget_name [ Smoke; Default; Deep ]
        "smoke: ~450 nodes; default: 10k nodes, 24 models; deep adds 100k nodes";
      ( "--models",
        Arg.String
          (fun csv ->
            models :=
              Some
                (List.map
                   (fun n ->
                     match Model.of_string n with
                     | Some m -> m
                     | None -> Kit.usagef "unknown model %S" n)
                   (String.split_on_char ',' csv))),
        "CSV restrict the sweep to these models (e.g. RMS,U1O)" );
      ( "--shards",
        Arg.String (fun s -> shard_k := Some (Kit.int_arg ~floor:2 "--shards" s)),
        "K sweep shard counts {1, K} (default 2 for smoke, 8 else)" );
      Kit.int ~floor:1 "--workers" workers "N domains for the parallel phase (default 1)";
      Kit.int "--seed" seed "N partition seed (default 0)";
      ( "--batch",
        Arg.String
          (fun v ->
            match (v, int_of_string_opt v) with
            | "epoch", _ -> batch := Some Bgp.Shard.Per_epoch
            | _, Some n when n >= 1 -> batch := Some (Bgp.Shard.Every n)
            | _ -> Kit.usagef "--batch expects \"epoch\" or an int >= 1"),
        "epoch|N override the model-derived batching" );
      Kit.repeat repeat;
      Kit.min_speedup min_speedup
        "exit 1 if the K-shard geomean speedup on the largest topology is below X \
         (not gated when the pool never engages)";
    ]
    @ checkpoint_flags
  in
  Kit.run ~artifact ~flags "bgp_scale" @@ fun () ->
  let budget = !budget in
  let shard_k = match !shard_k with Some k -> k | None -> default_shards budget in
  let results, resumed, failures =
    emit ~budget ~shard_k ~seed:!seed ~workers:!workers ~batch:!batch ~repeat:!repeat
      ~models_filter:!models ~checkpoint:(checkpoint ()) ~path:!path
  in
  let _, _, _, sp, degraded = results in
  Fmt.pr "bgp scale sweep (%s budget, K=%d, %d workers):@.%a" (budget_name budget) shard_k
    !workers pp_summary results;
  if resumed > 0 then Fmt.pr "resumed %d finished case(s) from the journal@." resumed;
  Fmt.pr "wrote %s@." !path;
  if failures <> [] then begin
    List.iter (fun f -> Printf.eprintf "bgp_scale: %s\n" f) failures;
    Kit.gate_failed ()
  end;
  match !min_speedup with
  | None -> ()
  | Some thr ->
    if degraded then
      Fmt.pr "[degraded] pool never engaged (workers=%d, cores=%d): --min-speedup not gated@."
        !workers
        (Domain.recommended_domain_count ())
    else begin
      let g = geomean sp in
      if g < thr then
        Kit.gatef "geomean speedup %.2fx below the --min-speedup %.2fx gate" g thr
      else Fmt.pr "speedup gate: %.2fx >= %.2fx@." g thr
    end

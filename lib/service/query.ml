module Json = Engine.Metrics.Json

let ( let* ) = Result.bind

type t = { store : Store.t; closure : Realization.Closure.t; workers : int }

let create ~store ~workers =
  match Realization.Closure.derive () with
  | Ok closure -> Ok { store; closure; workers = max 1 workers }
  | Error c ->
    Error (Error.Internal (Realization.Closure.contradiction_to_string c))

let store t = t.store

let num i = Json.Num (float_of_int i)

(* ------------------------------------------------------------------ *)
(* check: one bounded exploration + the oscillation verdict. *)

let check_schema = "commrouting/serve_check/v1"

let check_fp (c : Protocol.query_config) =
  Store.config_fingerprint
    [ check_schema; string_of_int c.bound; string_of_int c.max_states ]

let check_key inst model config ~instance:() =
  Store.key
    ~instance:(Engine.Snapshot.fingerprint inst)
    ~model:(Engine.Model.to_string model)
    ~config_fp:(check_fp config)

let compute_check ?metrics ?checkpoint ?resume inst model
    (c : Protocol.query_config) =
  let config =
    { Modelcheck.Explore.channel_bound = c.bound; max_states = c.max_states }
  in
  let graph =
    Modelcheck.Explore.explore_compact ~config ?metrics ?checkpoint ?resume inst
      model
  in
  let verdict =
    Engine.Metrics.timed ?m:metrics "analyze" (fun () ->
        Modelcheck.Oscillation.analyze_compact ?metrics inst graph)
  in
  let edges = Array.length graph.csr.Modelcheck.Fair.dst in
  let verdict_fields =
    match verdict with
    | Modelcheck.Oscillation.Converges -> [ ("verdict", Json.Str "converges") ]
    | Modelcheck.Oscillation.Unknown reason ->
      [ ("verdict", Json.Str "unknown"); ("reason", Json.Str reason) ]
    | Modelcheck.Oscillation.Oscillates w ->
      [
        ("verdict", Json.Str "oscillates");
        ( "witness",
          Json.Obj
            [
              ("prefix", num (List.length w.prefix));
              ("cycle", num (List.length w.cycle));
              ( "replays",
                Json.Bool
                  (Engine.Metrics.timed ?m:metrics "witness" (fun () ->
                       Modelcheck.Oscillation.verify_witness inst model w)) );
            ] );
      ]
  in
  Json.Obj
    (verdict_fields
    @ [
        ("states", num (Array.length graph.states));
        ("edges", num edges);
        ("pruned", Json.Bool graph.pruned);
        ("truncated", Json.Bool graph.truncated);
      ])

let check_memo t inst model config ~fresh =
  let instance = Engine.Snapshot.fingerprint inst in
  let mstr = Engine.Model.to_string model in
  let config_fp = check_fp config in
  match
    if fresh then None
    else Store.get t.store ~instance ~model:mstr ~config_fp
  with
  | Some r -> Ok (r, true)
  | None -> (
    match compute_check inst model config with
    | r ->
      (* Best effort: a full disk must not fail the query. *)
      ignore (Store.put t.store ~instance ~model:mstr ~config_fp r);
      Ok (r, false)
    | exception e -> Error (Error.Internal (Printexc.to_string e)))

let check t ~instance ~model ~config ~fresh =
  let* inst = Resolve.find instance in
  check_memo t inst model config ~fresh

(* ------------------------------------------------------------------ *)
(* sweep: the per-model checks of one instance, batched onto the pool.
   Each model's result lands in its slot, so the response order is the
   request order no matter how the workers interleave, and a raise answers
   [Internal] for its own model only. *)

let sweep t ~instance ~models ~config ~fresh =
  let* inst = Resolve.find instance in
  let models = if models = [] then Engine.Model.all else models in
  let out =
    Engine.Pool.map (Engine.Pool.get ()) ~workers:t.workers
      (fun m ->
        try check_memo t inst m config ~fresh
        with e -> Error (Error.Internal (Printexc.to_string e)))
      (Array.of_list models)
  in
  let results =
    List.mapi
      (fun i m ->
        let fields =
          match out.(i) with
          | Ok (r, cached) -> [ ("cached", Json.Bool cached); ("result", r) ]
          | Error e ->
            [
              ("error", Json.Str (Error.to_string e));
              ("kind", Json.Str (Error.kind e));
            ]
        in
        Json.Obj (("model", Json.Str (Engine.Model.to_string m)) :: fields))
      models
  in
  Ok
    (Json.Obj
       [ ("instance", Json.Str instance); ("results", Json.List results) ])

(* ------------------------------------------------------------------ *)
(* realize: the derived Figures 3/4 cell plus the constructive chain. *)

let realize t ~source ~target =
  let cell = Realization.Closure.cell t.closure ~realized:source ~realizer:target in
  let constructive =
    match Realization.Transform.route ~source ~target with
    | None -> Json.Null
    | Some path ->
      Json.Obj
        [
          ( "level",
            Json.Str (Realization.Relation.to_string (Realization.Transform.path_level path))
          );
          ( "chain",
            Json.List
              (List.map
                 (fun (e : Realization.Transform.edge) ->
                   Json.Obj
                     [
                       ("rule", Json.Str (Fmt.str "%a" Realization.Transform.pp_rule e.rule));
                       ("from", Json.Str (Engine.Model.to_string e.source));
                       ("to", Json.Str (Engine.Model.to_string e.target));
                     ])
                 path) );
        ]
  in
  Json.Obj
    [
      ("source", Json.Str (Engine.Model.to_string source));
      ("target", Json.Str (Engine.Model.to_string target));
      ("proven", num cell.Realization.Closure.proven);
      ("disproven", num cell.Realization.Closure.disproven);
      ("notation", Json.Str (Realization.Closure.cell_string cell));
      ("achievable", Json.Bool (cell.Realization.Closure.proven > 0));
      ("constructive", constructive);
    ]

(* ------------------------------------------------------------------ *)
(* bgp: sharded simulation of a generated scaled topology. *)

let bgp_schema = "commrouting/serve_bgp/v1"

let scaled_config ~nodes ~seed =
  let tier1 = max 3 (min 10 (nodes / 100)) in
  let tier2 = max 2 (nodes / 20) in
  let stubs = max 1 (nodes - tier1 - tier2) in
  {
    Bgp.Topology.s_tier1 = tier1;
    s_tier2 = tier2;
    s_stubs = stubs;
    s_peer_links = max 1 (tier2 / 2);
    s_seed = seed;
  }

let bgp t ~nodes ~seed ~model ~shards ~fresh =
  match Bgp.Topology.generate_scaled (scaled_config ~nodes ~seed) with
  | exception Invalid_argument m -> Error (Error.Usage m)
  | topo -> (
    let instance = Bgp.Topology.digest topo in
    let mstr = Engine.Model.to_string model in
    let config_fp =
      Store.config_fingerprint [ bgp_schema; string_of_int shards ]
    in
    match
      if fresh then None
      else Store.get t.store ~instance ~model:mstr ~config_fp
    with
    | Some r -> Ok (r, true)
    | None -> (
      match
        let cfg = Bgp.Shard.config_for ~shards model in
        Bgp.Shard.run cfg topo ~dest:(Bgp.Topology.size topo - 1)
      with
      | r ->
        let result =
          Json.Obj
            [
              ("nodes", num (Bgp.Topology.size topo));
              ("topology", Json.Str instance);
              ("model", Json.Str mstr);
              ("shards", num shards);
              ("converged", Json.Bool r.Bgp.Shard.converged);
              ("epochs", num r.Bgp.Shard.epochs);
              ("activations", num r.Bgp.Shard.activations);
              ("messages", num r.Bgp.Shard.messages);
              ("cross_messages", num r.Bgp.Shard.cross_messages);
              ("flushes", num r.Bgp.Shard.flushes);
              ("drops", num r.Bgp.Shard.drops);
              ("route_digest", Json.Str (Bgp.Shard.route_digest r));
            ]
        in
        ignore (Store.put t.store ~instance ~model:mstr ~config_fp result);
        Ok (result, false)
      | exception e -> Error (Error.Internal (Printexc.to_string e))))

(* ------------------------------------------------------------------ *)

let stats t =
  let pool = Engine.Pool.stats (Engine.Pool.get ()) in
  Json.Obj
    [
      ("store", Store.stats_json t.store);
      ( "pool",
        Json.Obj
          [
            ("size", num pool.Engine.Pool.size);
            ("spawned_total", num pool.Engine.Pool.spawned_total);
            ("runs", num pool.Engine.Pool.runs);
          ] );
    ]

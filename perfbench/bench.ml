(* The repo's benchmark workloads, one per process.

   bench.exe --workload W --seed N --seconds S --trace 0|1
             [--size full|tiny] [--serve PATH] [--run-dir DIR] [--expect-wrong]

   runs workload W for about S seconds after its set-up and a warm-up,
   checks every answer, and prints one JSON line: ops attempted and
   failed, the first few failure messages, the end-to-end metrics
   (untraced) or the per-layer metrics computed from spans (traced),
   each with its sample count.  perfbench/run.py builds this program,
   runs it in a fresh process and turns the line into the benchmark's
   result.  NOTES.md says why each workload exists and which metric each
   layer should move.

   Every timing brackets a call into a public library function from
   outside; no library code is instrumented.  On check-deep, sweep-24 and
   bgp-100k the timings are on the pace clock (pace.ml), which scales the
   shared host's slow and fast phases out of them. *)

module Json = Engine.Metrics.Json
module Query = Service.Query
module Store = Service.Store
module Protocol = Service.Protocol
module Explore = Modelcheck.Explore
module Oscillation = Modelcheck.Oscillation

type size = Full | Tiny

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : size;
  serve : string;  (** the bin/serve executable (serve-mixed only) *)
  run_dir : string;  (** scratch space inside the checkout *)
  expect_wrong : bool;  (** test hook: check answers against wrong references *)
}

let now = Unix.gettimeofday

(* The time since [t]: at the host's nominal speed while the Pace sampler
   runs (check-deep, sweep-24, bgp-100k), the wall time otherwise. *)
let since t = Pace.elapsed t (now ())

let mb_of_words w = w *. 8. /. 1e6

(* ------------------------------------------------------------------ *)
(* Outcome of a run. *)

type metric = { value : float; unit_ : string; samples : int }

let attempted = ref 0
let failures = ref []
let nfailed = ref 0
let metrics : (string * metric) list ref = ref []

let report ?(samples = 1) name unit_ value =
  metrics := (name, { value; unit_; samples }) :: !metrics

(* One checked answer: [ok] is whether it matched its reference. *)
let check ok fmt =
  Fmt.kstr
    (fun msg ->
      incr attempted;
      if not ok then begin
        incr nfailed;
        if List.length !failures < 5 then failures := msg :: !failures
      end)
    fmt

exception Infra of string

let infraf fmt = Fmt.kstr (fun m -> raise (Infra m)) fmt

let ok_or what = function
  | Ok v -> v
  | Error e -> infraf "%s: %s" what (Service.Error.to_string e)

(* ------------------------------------------------------------------ *)
(* Statistics. *)

let sorted l = List.sort compare l |> Array.of_list

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median l = quantile (sorted l) 0.5

(* The highest of p99, p90 and p50 with at least ten samples above it;
   a run with fewer than 20 samples reports its median, never a tail
   estimated from a handful of points. *)
let tail l =
  let n = List.length l in
  let q = if n >= 1000 then 0.99 else if n >= 100 then 0.9 else 0.5 in
  (q, quantile (sorted l) q)

let report_latencies ~name l =
  let samples = List.length l in
  if samples <= 50 then
    Fmt.pr "# %s op latencies (ms, in order): %s@." name
      (String.concat " " (List.rev_map (fun x -> Printf.sprintf "%.1f" (x *. 1000.)) l));
  let q, v = tail l in
  report ~samples "p50_ms" "ms" (median l *. 1000.);
  report ~samples "p99_ms" "ms" (v *. 1000.);
  if q < 0.99 then
    Fmt.pr "# %s: %d samples, too few for a p99: p99_ms reports p%.0f@." name
      samples (q *. 100.)

(* ------------------------------------------------------------------ *)
(* Process-level helpers. *)

(* The peak RSS of a process (VmHWM in /proc/<pid>/status), or nan. *)
let peak_rss_mb ~pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> nan
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> nan
      | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb -> kb /. 1024.)
      | _ -> go ()
    in
    let v = go () in
    close_in ic;
    v

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let model name =
  match Engine.Model.of_string name with
  | Some m -> m
  | None -> invalid_arg name

let mname = Engine.Model.to_string

(* Set-up is repeated, one repetition after the other and before any
   other work, for at least [seconds] and at least three times.  Users pay
   it once, so the median of the repetitions is reported, and the last
   repetition's value is kept.  [teardown] releases a discarded
   repetition, outside the timing.  The machine's speed changes from one
   second to the next, so a short set-up repeated over a few seconds gives
   a steadier median than a few repetitions would.  The heap is compacted
   afterwards: how many repetitions fit, and so how much garbage they
   left, must not change the work that follows. *)
let setup_times = ref []

let setup ?teardown ~seconds f =
  let t0 = now () in
  let once i =
    let t = now () in
    let v = f i in
    setup_times := since t :: !setup_times;
    v
  in
  let rec go i last =
    match last with
    | Some v when i >= 3 && now () -. t0 >= seconds -> v
    | _ ->
      (match (teardown, last) with Some g, Some v -> g v | _ -> ());
      go (i + 1) (Some (once i))
  in
  let v = go 0 None in
  Gc.compact ();
  v

(* How long set-up is repeated. *)
let setup_seconds o = match o.size with Full -> 2.0 | Tiny -> 0.1

(* The process's peak RSS once its first unit of work is done: later
   units add garbage, not live data, so neither their number (which
   depends on the machine's speed) nor their seeded order may move the
   figure. *)
let first_unit_rss_mb = ref nan

let note_first_unit () =
  if Float.is_nan !first_unit_rss_mb then first_unit_rss_mb := peak_rss_mb ~pid:"self"

(* Warm-up: one unit of work, untimed.  The first units of a process grow
   its heap to what later ones reuse; timing that growth would make a
   figure depend on how many units a run fits. *)
let warm_up f =
  Span.with_ "harness.warmup" f;
  note_first_unit ()

(* Repeat a fixed unit of work for about [seconds] of wall time: another
   unit starts only when the last one's duration says it ends inside the
   budget (10% slack), and at least one always runs.  Returns the unit
   durations at nominal speed; [raw_units] keeps their wall times. *)
let raw_units = ref []

let repeat_for seconds unit_ =
  let t0 = now () in
  let rec go i last acc =
    if i > 0 && now () -. t0 +. last > seconds *. 1.1 then List.rev acc
    else begin
      let t = now () in
      Span.with_ ~req:(i + 1) "harness.unit" (fun () -> unit_ i);
      let t1 = now () in
      raw_units := (t1 -. t) :: !raw_units;
      note_first_unit ();
      go (i + 1) (t1 -. t) (Pace.elapsed t t1 :: acc)
    end
  in
  go 0 0. []

(* Whether [v] equals what [key] gave the first time (recorded then):
   counts of deterministic work must repeat exactly. *)
let same_as_before seen key v =
  match Hashtbl.find_opt seen key with
  | Some v0 -> v0 = v
  | None ->
    Hashtbl.replace seen key v;
    true

(* ------------------------------------------------------------------ *)
(* JSON helpers. *)

let num_field k j =
  match Json.member k j with Some (Json.Num x) -> Some x | _ -> None

let str_field k j = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None

let replays j =
  match Json.member "witness" j with
  | Some w -> Json.member "replays" w = Some (Json.Bool true)
  | None -> false

(* Cache-hit flags say who paid for an answer, not what it is. *)
let rec drop_cached = function
  | Json.Obj fields ->
    Json.Obj
      (List.filter_map
         (fun (k, v) -> if k = "cached" then None else Some (k, drop_cached v))
         fields)
  | Json.List l -> Json.List (List.map drop_cached l)
  | v -> v

(* ------------------------------------------------------------------ *)
(* The service layer in-process: a fresh store and query layer. *)

let open_query dir =
  rm_rf dir;
  let store = ok_or "store" (Store.open_ { Store.dir; max_entries = Store.default_max_entries }) in
  ok_or "query layer" (Query.create ~store ~workers:1)

(* What Query.compute_check does, one public call at a time, each in its
   own span: explore, analyze, replay the witness, store the answer.
   The rendered answer has the same fields as the library's, so the
   correctness gate applies to both paths alike. *)
let traced_check q ~req inst model (c : Protocol.query_config) =
  Span.with_ ~req "service.check" (fun () ->
      let config = { Explore.channel_bound = c.bound; max_states = c.max_states } in
      let graph = Span.with_ ~gc:true "modelcheck.explore" (fun () -> Explore.explore ~config inst model) in
      let verdict =
        Span.with_ ~gc:true "modelcheck.analyze" (fun () -> Oscillation.analyze_graph inst graph)
      in
      let num i = Json.Num (float_of_int i) in
      let edges = Array.fold_left (fun n es -> n + List.length es) 0 graph.Explore.adjacency in
      let verdict_fields =
        match verdict with
        | Oscillation.Converges -> [ ("verdict", Json.Str "converges") ]
        | Oscillation.Unknown reason -> [ ("verdict", Json.Str "unknown"); ("reason", Json.Str reason) ]
        | Oscillation.Oscillates w ->
          let ok =
            Span.with_ "modelcheck.witness" (fun () -> Oscillation.verify_witness inst model w)
          in
          [
            ("verdict", Json.Str "oscillates");
            ( "witness",
              Json.Obj
                [
                  ("prefix", num (List.length w.prefix));
                  ("cycle", num (List.length w.cycle));
                  ("replays", Json.Bool ok);
                ] );
          ]
      in
      let result =
        Json.Obj
          (verdict_fields
          @ [
              ("states", num (Array.length graph.states));
              ("edges", num edges);
              ("pruned", Json.Bool graph.pruned);
              ("truncated", Json.Bool graph.truncated);
            ])
      in
      let instance = Engine.Snapshot.fingerprint inst in
      Span.with_ "service.store_put" (fun () ->
          ignore
            (Store.put (Query.store q) ~instance ~model:(mname model)
               ~config_fp:(Query.check_fp c) result));
      result)

let resolve name = Span.with_ "service.resolve" (fun () -> ok_or name (Service.Resolve.find name))

(* The set-up of check-deep and sweep-24: a fresh store and query layer,
   and the instance resolved. *)
let setup_query o instance =
  let q, _ =
    setup ~seconds:(setup_seconds o)
      ~teardown:(fun (_, dir) -> rm_rf dir)
      (fun i ->
        let dir = Filename.concat o.run_dir (Printf.sprintf "store-%d" i) in
        let q = open_query dir in
        ignore (resolve instance);
        (q, dir))
  in
  q

(* Per-layer metrics from the spans of [units] traced units of work:
   times and GC figures per unit, and each layer's self time.  Heap
   growth comes from the warm-up, the process's first unit: later units
   reuse the heap it grew. *)
let report_layers all ~units ~unit_wall =
  let spans = Span.under "harness.unit" all in
  let per_unit x = x /. float_of_int (max 1 units) in
  let sum name f = per_unit (Span.sum_named spans name f) in
  let d = Span.duration in
  let analyze_s = sum "modelcheck.analyze" d in
  report "modelcheck.explore_s" "s" (sum "modelcheck.explore" d);
  report "modelcheck.analyze_s" "s" analyze_s;
  report "modelcheck.analyze_share" "ratio" (if unit_wall > 0. then analyze_s /. unit_wall else 0.);
  report "modelcheck.analyze_heap_mb" "MB"
    (mb_of_words
       (Span.sum_named (Span.under "harness.warmup" all) "modelcheck.analyze" (fun s ->
            float_of_int s.Span.heap_growth_words)));
  report "modelcheck.explore_alloc_mb" "MB" (mb_of_words (sum "modelcheck.explore" (fun s -> s.Span.alloc_words)));
  report "modelcheck.witness_s" "s" (sum "modelcheck.witness" d);
  report "modelcheck.witness_replayed" "count"
    (per_unit (float_of_int (Span.count_named spans "modelcheck.witness")));
  report "service.store_put_s" "s" (sum "service.store_put" d);
  report "service.resolve_s" "s" (sum "service.resolve" d);
  let self = Span.self_times spans in
  List.iter
    (fun layer ->
      report (layer ^ ".self_s") "s"
        (per_unit
           (List.fold_left (fun acc (s, t) -> if Span.layer s = layer then acc +. t else acc) 0. self)))
    [ "modelcheck"; "service"; "realization"; "bgp" ];
  (* Time inside layer spans, per unit: what the spans cover. *)
  report "harness.layer_time_s" "s"
    (per_unit
       (List.fold_left (fun acc (s, t) -> if Span.layer s <> "harness" then acc +. t else acc) 0. self))

(* A digest of one unit's (model, answer) pairs, in model order and
   without cache-hit flags.  run.py requires the untraced and the traced
   run of a workload to give the same digest: the traced path's answers
   are then checked against the library's at full size. *)
let answers_digest = ref ""

let note_answers pairs =
  let line (m, r) = m ^ " " ^ Json.to_string (drop_cached r) in
  answers_digest :=
    Digest.to_hex
      (Digest.string (String.concat "\n" (List.map line (List.sort (fun (a, _) (b, _) -> compare a b) pairs))))

(* The graph counts of the checked answers of one unit of work. *)
let report_graph_counts all ~units results =
  let spans = Span.under "harness.unit" all in
  let total k = List.fold_left (fun n r -> n +. Option.value ~default:0. (num_field k r)) 0. results in
  let states = total "states" in
  let explore_s = Span.sum_named spans "modelcheck.explore" Span.duration /. float_of_int (max 1 units) in
  report "modelcheck.explore_states" "count" states;
  report "modelcheck.explore_edges" "count" (total "edges");
  report "modelcheck.explore_states_per_s" "states/s" (if explore_s > 0. then states /. explore_s else 0.);
  report "modelcheck.witness_ok" "count" (float_of_int (List.length (List.filter replays results)))

(* ------------------------------------------------------------------ *)
(* check-deep: cold checks of FIG6 under R1A and RMA. *)

(* Expected answers: (instance, models, config, states).  Both full-size
   checks converge exhaustively at 7,385 states. *)
let deep_case = function
  | Full -> ("FIG6", [ "R1A"; "RMA" ], Protocol.default_query_config, 7385)
  | Tiny -> ("GOOD-GADGET", [ "R1A"; "RMA" ], Protocol.default_query_config, 69)

let check_deep o =
  let instance, models, config, expected_states = deep_case o.size in
  let expected_states = if o.expect_wrong then expected_states + 1 else expected_states in
  let rng = Random.State.make [| o.seed |] in
  let q = setup_query o instance in
  let reqs = ref 0 in
  let check_one m =
    incr reqs;
    if o.trace then traced_check q ~req:!reqs (resolve instance) (model m) config
    else fst (ok_or "check" (Query.check q ~instance ~model:(model m) ~config ~fresh:true))
  in
  warm_up (fun () -> List.iter (fun m -> ignore (check_one m)) models);
  let gate m r =
    check
      (str_field "verdict" r = Some "converges"
      && num_field "states" r = Some (float_of_int expected_states)
      && Json.member "truncated" r = Some (Json.Bool false))
      "%s/%s: %s" instance m (Json.to_string r)
  in
  let latencies = ref [] and results = ref [] in
  let units =
    repeat_for o.seconds (fun i ->
        List.iter
          (fun m ->
            let t = now () in
            let r = check_one m in
            latencies := since t :: !latencies;
            if i = 0 then results := (m, r) :: !results;
            gate m r)
          (shuffle rng models))
  in
  let n = List.length !latencies in
  report ~samples:(List.length units) "wall_s" "s" (median units);
  report_latencies ~name:"check-deep" !latencies;
  report ~samples:n "cold_p50_ms" "ms" (median !latencies *. 1000.);
  report ~samples:n "ops_per_s" "1/s" (float_of_int n /. List.fold_left ( +. ) 0. units);
  if o.trace then begin
    let spans = Span.all () and n_units = List.length units in
    report_layers spans ~units:n_units ~unit_wall:(median units);
    report_graph_counts spans ~units:n_units (List.map snd !results)
  end;
  note_answers !results

(* ------------------------------------------------------------------ *)
(* sweep-24: every model of BAD-GADGET, fresh, one worker. *)

let sweep_case = function
  | Full -> ("BAD-GADGET", { Protocol.bound = 3; max_states = 3000 })
  | Tiny -> ("BAD-GADGET", { Protocol.bound = 1; max_states = 2000 })

let sweep_24 o =
  let instance, config = sweep_case o.size in
  let rng = Random.State.make [| o.seed |] in
  let q = setup_query o instance in
  (* One sweep's (model, answer) pairs, in request order. *)
  let sweep_once ~req models =
    if o.trace then
      Span.with_ ~req "service.sweep" (fun () ->
          let inst = resolve instance in
          List.map (fun m -> (Some (mname m), Some (traced_check q ~req inst m config))) models)
    else
      match Json.member "results" (ok_or "sweep" (Query.sweep q ~instance ~models ~config ~fresh:true)) with
      | Some (Json.List l) -> List.map (fun e -> (str_field "model" e, Json.member "result" e)) l
      | _ -> []
  in
  warm_up (fun () -> ignore (sweep_once ~req:0 Engine.Model.all));
  (* Every model oscillates and its witness replays; the state and edge
     counts of a model must repeat exactly from one sweep to the next. *)
  let seen = Hashtbl.create 24 in
  let gate m r =
    let repeat_ok = same_as_before seen m (num_field "states" r, num_field "edges" r) in
    check
      ((str_field "verdict" r = Some "oscillates") <> o.expect_wrong && replays r && repeat_ok)
      "%s/%s: %s" instance m (Json.to_string r)
  in
  let first = ref [] in
  let units =
    repeat_for o.seconds (fun i ->
        let results = sweep_once ~req:(i + 1) (shuffle rng Engine.Model.all) in
        if List.length results <> 24 then check false "sweep returned %d results" (List.length results);
        List.iter
          (function
            | Some m, Some r ->
              if i = 0 then first := (m, r) :: !first;
              gate m r
            | _ -> check false "sweep entry without a model or a result")
          results)
  in
  let n = List.length units in
  report ~samples:n "wall_s" "s" (median units);
  report_latencies ~name:"sweep-24" units;
  report ~samples:n "cold_p50_ms" "ms" (median units *. 1000.);
  report ~samples:n "ops_per_s" "1/s" (float_of_int (24 * n) /. List.fold_left ( +. ) 0. units);
  if o.trace then begin
    let spans = Span.all () in
    report_layers spans ~units:n ~unit_wall:(median units);
    report_graph_counts spans ~units:n (List.map snd !first)
  end;
  note_answers !first

(* ------------------------------------------------------------------ *)
(* bgp-100k: the 24 models on one 100k-node scaled topology, 4 shards. *)

(* (tier-1, tier-2, stubs, tier-2 peering links): the 100,010-node
   topology of bench/bgp_scale.ml's deep budget.  Its generator seed is
   fixed: across generator seeds 101-110 the node activations of the
   same runs differed by up to 36%, which would bury any code change
   under the choice of topology.  The run's seed permutes the models. *)
let bgp_shape = function Full -> (10, 4_000, 96_000, 2_000) | Tiny -> (3, 40, 400, 20)

let bgp_100k o =
  let tier1, tier2, stubs, peers = bgp_shape o.size in
  let cfg =
    {
      Bgp.Topology.s_tier1 = tier1;
      s_tier2 = tier2;
      s_stubs = stubs;
      s_peer_links = peers;
      s_seed = Bgp.Topology.default_scaled_config.s_seed;
    }
  in
  let rng = Random.State.make [| o.seed |] in
  let topo = setup ~seconds:(setup_seconds o) (fun _ -> Span.with_ "bgp.topology" (fun () -> Bgp.Topology.generate_scaled cfg)) in
  (* Routes toward tier-1 AS 0, which every AS learns: the work then
     depends on the topology's shape, not on where one stub sits. *)
  let dest = 0 in
  (* One worker: the run is sequential whatever the core count. *)
  let run ~shards m = Bgp.Shard.run (Bgp.Shard.config_for ~shards ~workers:1 m) topo ~dest in
  (* The 1-shard fixpoint (also the warm-up).  Gao-Rexford stable routes
     are unique on these topologies, so every model's 4-shard run must
     reach the same routes, and repeat its counts exactly. *)
  let reference = Bgp.Shard.route_digest (run ~shards:1 (model "RMS")) in
  let reference = if o.expect_wrong then Digest.to_hex (Digest.string reference) else reference in
  let seen = Hashtbl.create 24 in
  let latencies = ref [] and first_counts = ref [] in
  let units =
    repeat_for o.seconds (fun i ->
        List.iter
          (fun m ->
            let t = now () in
            let r = Span.with_ ~gc:true "bgp.shard" (fun () -> run ~shards:4 m) in
            latencies := since t :: !latencies;
            let counts = Bgp.Shard.[ r.epochs; r.activations; r.messages; r.cross_messages ] in
            if i = 0 then first_counts := counts :: !first_counts;
            let repeat_ok = same_as_before seen m counts in
            let digest = Bgp.Shard.route_digest r in
            check
              (r.Bgp.Shard.converged && digest = reference && repeat_ok)
              "bgp %s: converged=%b digest=%s (reference %s) counts repeat=%b" (mname m)
              r.Bgp.Shard.converged digest reference repeat_ok)
          (shuffle rng Engine.Model.all))
  in
  (* One more run of a model, outside the timing, when no model ran twice. *)
  if List.length units = 1 then begin
    let m = List.hd Engine.Model.all in
    let r = run ~shards:4 m in
    let counts = Bgp.Shard.[ r.epochs; r.activations; r.messages; r.cross_messages ] in
    check
      (same_as_before seen m counts && Bgp.Shard.route_digest r = reference)
      "bgp %s: a repeated run differs" (mname m)
  end;
  (* A unit's wall time is its 24 runs, not the digest checks between them. *)
  let n = List.length !latencies and n_units = List.length units in
  let per_model = List.length Engine.Model.all in
  let unit_walls =
    List.init n_units (fun u ->
        List.fold_left ( +. ) 0. (List.filteri (fun k _ -> k / per_model = u) (List.rev !latencies)))
  in
  report ~samples:n_units "wall_s" "s" (median unit_walls);
  report_latencies ~name:"bgp-100k" !latencies;
  report ~samples:n "cold_p50_ms" "ms" (median !latencies *. 1000.);
  report ~samples:n "ops_per_s" "1/s" (float_of_int n /. List.fold_left ( +. ) 0. unit_walls);
  if o.trace then begin
    let spans = Span.all () in
    report_layers spans ~units:n_units ~unit_wall:(median unit_walls);
    let topo_s = List.filter_map (fun s -> if s.Span.name = "bgp.topology" then Some (Span.duration s) else None) spans in
    report "bgp.topology_gen_s" "s" (median topo_s);
    let p = Span.with_ "bgp.partition" (fun () -> Bgp.Partition.make ~seed:Bgp.Shard.default_config.seed ~shards:4 topo) in
    let spans = Span.all () in
    report "bgp.partition_s" "s" (Span.sum_named spans "bgp.partition" Span.duration);
    report "bgp.partition_cut_fraction" "ratio" (Bgp.Partition.cut_fraction p);
    report "bgp.partition_imbalance" "ratio" (Bgp.Partition.imbalance p);
    let per_unit x = x /. float_of_int n_units in
    let shard_s = per_unit (Span.sum_named spans "bgp.shard" Span.duration) in
    let total k = float_of_int (List.fold_left (fun acc c -> acc + List.nth c k) 0 !first_counts) in
    report "bgp.shard_s" "s" shard_s;
    report "bgp.shard_alloc_mb" "MB" (mb_of_words (per_unit (Span.sum_named spans "bgp.shard" (fun s -> s.Span.alloc_words))));
    report "bgp.shard_activations_per_s" "1/s" (total 1 /. shard_s);
    report "bgp.shard_epochs" "count" (total 0);
    report "bgp.shard_activations" "count" (total 1);
    report "bgp.shard_messages" "count" (total 2);
    report "bgp.shard_cross_messages" "count" (total 3)
  end

(* ------------------------------------------------------------------ *)
(* serve-mixed: a forked bin/serve daemon under two request streams.

   The hot stream (warm sweeps, a warm check, realize, ping) is an open
   loop at a fixed rate far below capacity; each request is timed from
   when it was due, so a stall also counts against the requests queued
   behind it.  The cold stream sends fresh mid-size checks at a low fixed
   rate on its own connection.  The daemon computes on its select loop,
   so a cold check blocks the hot stream: p99_ms measures that blocking,
   cold_p50_ms the cold checks themselves. *)

let hot_rate = 200.
let spin_s = 0.001

type serve_case = {
  hot : (string * Protocol.request) list;  (** one cycle of the hot mix *)
  cold : Protocol.request;
  cold_period : float;
}

let serve_case size =
  let qc = Protocol.default_query_config in
  let warm instance m = ("check", Protocol.Check { instance; model = model m; config = qc; fresh = false }) in
  let sweep instance = ("sweep", Protocol.Sweep { instance; models = []; config = qc; fresh = false }) in
  (* Five of the eight slots are warm 24-model sweeps, so the median
     request, blocked or not, is a sweep: about a millisecond of work in
     the daemon, which p50_ms then measures more than the machine's
     wake-up latency. *)
  let hot =
    [ ("ping", Protocol.Ping); ("realize", Protocol.Realize { source = model "R1S"; target = model "R1O" }); warm "GOOD-GADGET" "RMS" ]
    @ List.init 5 (fun _ -> sweep "DISAGREE")
  in
  match size with
  | Full ->
    {
      hot;
      cold = Protocol.Check { instance = "BAD-GADGET"; model = model "RMS"; config = { qc with bound = 3 }; fresh = true };
      cold_period = 2.0;
    }
  | Tiny ->
    {
      hot;
      cold = Protocol.Check { instance = "DISAGREE"; model = model "RMS"; config = { qc with bound = 3 }; fresh = true };
      cold_period = 0.5;
    }

type sample = { kind : string; due : float; sent : float; recv : float; ok : bool }

let connect ~socket =
  let deadline = now () +. 30. in
  let rec go () =
    match Service.Client.connect ~socket with
    | Ok c -> c
    | Error e ->
      if now () > deadline then infraf "daemon at %s: %s" socket (Service.Error.to_string e);
      Unix.sleepf 0.001;
      go ()
  in
  go ()

let send c req = Service.Client.request c { Protocol.id = Json.Null; req }

let answer = function
  | Ok j when Json.member "ok" j = Some (Json.Bool true) -> Json.member "result" j
  | _ -> None

let child_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv -> not (String.length kv >= 8 && String.sub kv 0 8 = "DOMAINS="))
  |> Array.of_list

let wait_exit pid =
  let deadline = now () +. 20. in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if now () > deadline then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.01;
        go ()
      end
    | _ -> ()
  in
  go ()

(* Send the schedule [(due, kind, request, expected answer)] over one
   connection, each request no earlier than it is due. *)
let drive c schedule =
  List.map
    (fun (due, kind, req, expected) ->
      (* Sleep until shortly before the request is due, then spin: a
         timer wake-up on a shared machine is late by a varying amount. *)
      let wait = due -. now () -. spin_s in
      if wait > 0. then Unix.sleepf wait;
      while now () < due do () done;
      let sent = now () in
      let resp = send c req in
      let recv = now () in
      let ok =
        match answer resp with
        | Some r -> Json.to_string (drop_cached r) = expected
        | None -> false
      in
      { kind; due; sent; recv; ok })
    schedule

let serve_mixed o =
  let case = serve_case o.size in
  let rng = Random.State.make [| o.seed |] in
  let warm = List.sort_uniq compare (List.filter (fun (k, _) -> k = "check" || k = "sweep") case.hot) in
  let socket = Filename.concat o.run_dir "d.sock" and store_dir = Filename.concat o.run_dir "store" in
  let start () =
    rm_rf store_dir;
    let pid =
      Unix.create_process_env o.serve
        [| o.serve; "daemon"; "-s"; socket; "--store"; store_dir; "--workers"; "1" |]
        (child_env ()) Unix.stdin Unix.stderr Unix.stderr
    in
    let c = connect ~socket in
    List.iter
      (fun (_, req) -> if answer (send c req) = None then infraf "priming the daemon failed")
      warm;
    Service.Client.close c;
    pid
  in
  let stop pid =
    let c = connect ~socket in
    ignore (send c Protocol.Shutdown);
    Service.Client.close c;
    wait_exit pid
  in
  (* Set-up: daemon start and priming of the warm entries; the last
     daemon serves the load. *)
  let pid = setup ~seconds:(setup_seconds o) ~teardown:stop (fun _ -> start ()) in
  (* The in-process reference: the same answers from Service.Query. *)
  let q = open_query (Filename.concat o.run_dir "ref-store") in
  let render j =
    let s = Json.to_string (drop_cached j) in
    if o.expect_wrong then s ^ " " else s
  in
  let expected = function
    | Protocol.Ping -> Json.Obj [ ("pong", Json.Bool true) ]
    | Protocol.Check { instance; model; config; fresh = false } ->
      fst (ok_or "reference" (Query.check q ~instance ~model ~config ~fresh:false))
    | Protocol.Check { instance; model; config; fresh = true } ->
      let inst = ok_or instance (Service.Resolve.find instance) in
      (* Traced, computed three times: the first time in a process also
         grows its heap, which the daemon's later cold checks do not pay. *)
      let compute () = Span.with_ "service.cold_compute" (fun () -> Query.compute_check inst model config) in
      if o.trace then ignore (compute ());
      if o.trace then ignore (compute ());
      compute ()
    | Protocol.Sweep { instance; models; config; fresh } ->
      ok_or "reference" (Query.sweep q ~instance ~models ~config ~fresh)
    | Protocol.Realize { source; target } -> Query.realize q ~source ~target
    | _ -> infraf "no reference for this request"
  in
  let mix = Array.of_list (List.map (fun (k, req) -> (k, req, render (expected req))) case.hot) in
  let cold_expected = render (expected case.cold) in
  (* Schedules: the seed sets the hot stream's phase and permutes the hot
     mix within each cycle of it. *)
  let t0 = now () +. 0.05 in
  let phase = Random.State.float rng (1. /. hot_rate) in
  let n_hot = int_of_float (o.seconds *. hot_rate) in
  let hot_schedule = ref [] and cycle = ref mix in
  for k = 0 to n_hot - 1 do
    let j = k mod Array.length mix in
    if j = 0 then cycle := Array.of_list (shuffle rng (Array.to_list mix));
    let kind, req, exp = !cycle.(j) in
    hot_schedule := (t0 +. phase +. (float_of_int k /. hot_rate), kind, req, exp) :: !hot_schedule
  done;
  let hot_schedule = List.rev !hot_schedule in
  let n_cold = max 1 (int_of_float (o.seconds /. case.cold_period)) in
  let cold_schedule =
    List.init n_cold (fun j ->
        (t0 +. ((float_of_int j +. 0.5) *. case.cold_period), "cold", case.cold, cold_expected))
  in
  (* Two connections, one per stream, when there are two cores for the
     client process; on one core both streams share one connection. *)
  let nproc = Domain.recommended_domain_count () in
  let hot_c = connect ~socket in
  let hot, cold =
    if nproc >= 2 then begin
      let cold_c = connect ~socket in
      let cold = ref [] in
      let th = Thread.create (fun () -> cold := drive cold_c cold_schedule) () in
      let hot = drive hot_c hot_schedule in
      Thread.join th;
      Service.Client.close cold_c;
      (hot, !cold)
    end
    else
      let by_due (a, _, _, _) (b, _, _, _) = compare a b in
      List.partition (fun s -> s.kind <> "cold") (drive hot_c (List.merge by_due hot_schedule cold_schedule))
  in
  List.iter (fun s -> check s.ok "serve %s request due at +%.3fs: wrong or refused answer" s.kind (s.due -. t0)) (hot @ cold);
  let latency s = s.recv -. s.due in
  let hot_l = List.map latency hot and cold_l = List.map latency cold in
  let first_due l = List.fold_left (fun a s -> Float.min a s.due) infinity l in
  let last_recv l = List.fold_left (fun a s -> Float.max a s.recv) neg_infinity l in
  let n = List.length hot in
  report ~samples:(n + n_cold) "wall_s" "s" (last_recv (hot @ cold) -. first_due (hot @ cold));
  report_latencies ~name:"serve-mixed hot" hot_l;
  report ~samples:n "ops_per_s" "1/s" (float_of_int n /. (last_recv hot -. first_due hot));
  report ~samples:n_cold "cold_p50_ms" "ms" (median cold_l *. 1000.);
  report "peak_rss_mb" "MB" (peak_rss_mb ~pid:(string_of_int pid));
  if o.trace then begin
    List.iteri (fun i s -> Span.add ~name:("service.client." ^ s.kind) ~req:(i + 1) ~start:s.sent ~stop:s.recv) (hot @ cold);
    let rtt kind =
      median (List.filter_map (fun s -> if s.kind = kind then Some (s.recv -. s.sent) else None) hot) *. 1000.
    in
    List.iter (fun k -> report ("service.rtt_ms." ^ k) "ms" (rtt k)) [ "ping"; "check"; "sweep"; "realize" ];
    let blocked h = List.exists (fun c -> h.due < c.recv && h.recv > c.sent) cold in
    report "service.hot_blocked_share" "ratio"
      (float_of_int (List.length (List.filter blocked hot)) /. float_of_int n);
    report "harness.gen_lag_ms" "ms" (median (List.map (fun s -> s.sent -. s.due) hot) *. 1000.);
    report "service.cold_compute_s" "s"
      (median
         (List.filter_map
            (fun s -> if s.Span.name = "service.cold_compute" then Some (Span.duration s) else None)
            (Span.all ())));
    (* The daemon's store counters, and Store.get on its directory. *)
    let c = connect ~socket in
    (match answer (send c Protocol.Stats) with
    | Some st -> (
      match Json.member "store" st with
      | Some s ->
        let f k = Option.value ~default:0. (num_field k s) in
        report "service.store_hit_ratio" "ratio" (f "hits" /. Float.max 1. (f "hits" +. f "misses"))
      | None -> ())
    | None -> infraf "stats request failed");
    Service.Client.close c;
    let store = ok_or "store" (Store.open_ { Store.dir = store_dir; max_entries = Store.default_max_entries }) in
    let gets =
      List.concat_map
        (fun (_, req, _) ->
          match req with
          | Protocol.Check { instance; model; config; _ } ->
            let inst = Engine.Snapshot.fingerprint (ok_or instance (Service.Resolve.find instance)) in
            List.init 50 (fun _ ->
                let t = now () in
                let r =
                  Span.with_ "service.store_get" (fun () ->
                      Store.get store ~instance:inst ~model:(mname model) ~config_fp:(Query.check_fp config))
                in
                if r = None then infraf "warm entry missing from the daemon's store";
                now () -. t)
          | _ -> [])
        (Array.to_list mix)
    in
    report "service.store_get_ms" "ms" (median gets *. 1000.);
    let timed_median reps name f =
      median (List.init reps (fun _ -> let t = now () in ignore (Span.with_ name f); now () -. t))
    in
    report "realization.closure_derive_s" "s"
      (timed_median 20 "realization.closure_derive" Realization.Closure.derive);
    report "realization.realize_ms" "ms"
      (1000. *. timed_median 200 "realization.realize" (fun () ->
           Query.realize q ~source:(model "R1S") ~target:(model "R1O")))
  end;
  stop pid;
  rm_rf store_dir

(* ------------------------------------------------------------------ *)

let workloads =
  [ ("check-deep", check_deep); ("sweep-24", sweep_24); ("bgp-100k", bgp_100k); ("serve-mixed", serve_mixed) ]

let float_str x = if Float.is_nan x || Float.is_integer x then Printf.sprintf "%.0f" (if Float.is_nan x then 0. else x) else Printf.sprintf "%.17g" x

let emit o =
  let str s = Json.to_string (Json.Str s) in
  let metric (name, m) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s, \"samples\": %d}" (str name) (float_str m.value) (str m.unit_) m.samples
  in
  Printf.printf
    "{\"workload\": %s, \"seed\": %d, \"trace\": %b, \"nproc\": %d, \"ocaml\": %s, \"attempted\": %d, \"failed\": %d, \"failures\": [%s], \"answers\": %s, \"metrics\": {%s}}\n%!"
    (str o.workload) o.seed o.trace (Domain.recommended_domain_count ()) (str Sys.ocaml_version) !attempted !nfailed
    (String.concat ", " (List.rev_map str !failures))
    (str !answers_digest)
    (String.concat ", " (List.rev_map metric !metrics))

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let size = ref Full and serve = ref "" and run_dir = ref "" and expect_wrong = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of check-deep, sweep-24, bgp-100k, serve-mixed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 record spans and report per-layer metrics");
      ( "--size",
        Arg.Symbol ([ "full"; "tiny" ], fun s -> size := if s = "tiny" then Tiny else Full),
        " tiny inputs, for the benchmark's own tests" );
      ("--serve", Arg.Set_string serve, "PATH the bin/serve executable");
      ("--run-dir", Arg.Set_string run_dir, "DIR scratch directory");
      ("--expect-wrong", Arg.Set expect_wrong, " check answers against wrong references (tests the gate)");
    ]
  in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some f when !run_dir <> "" && (!trace = 0 || !trace = 1) -> f
    | _ ->
      Arg.usage spec usage;
      exit 2
  in
  let o =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      size = !size;
      serve = !serve;
      run_dir = !run_dir;
      expect_wrong = !expect_wrong;
    }
  in
  mkdir_p o.run_dir;
  Span.enabled := o.trace;
  if o.workload <> "serve-mixed" then Pace.start ();
  match run o with
  | () ->
    Pace.stop ();
    let r, n = Pace.summary () in
    if n > 0 then
      Fmt.pr "# host speed: reference kernel %.4f ms (median of %d samples; nominal %.4f ms); unit wall time %.4g s unscaled (median)@."
        (r *. 1000.) n (Pace.nominal *. 1000.) (median !raw_units);
    report ~samples:(List.length !setup_times) "setup_s" "s" (median !setup_times);
    if not (List.mem_assoc "peak_rss_mb" !metrics) then begin
      (* Memory that later units keep (a leak, a growing cache) shows
         here, beside the gated after-warm-up figure. *)
      Fmt.pr "# peak RSS: %.1f MB after the warm-up, %.1f MB at the end of the run@." !first_unit_rss_mb
        (peak_rss_mb ~pid:"self");
      report "peak_rss_mb" "MB" !first_unit_rss_mb
    end;
    if o.trace then begin
      let oc = open_out (Filename.concat o.run_dir "spans.json") in
      output_string oc (Span.to_string (Span.all ()));
      close_out oc
    end;
    List.iter (fun f -> if String.length f > 6 && String.sub f 0 6 = "store-" then rm_rf (Filename.concat o.run_dir f))
      (Array.to_list (Sys.readdir o.run_dir));
    rm_rf (Filename.concat o.run_dir "ref-store");
    emit o
  | exception Infra m ->
    Fmt.epr "bench: %s@." m;
    exit 1

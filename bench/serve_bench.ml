(* Daemon bench: cold-vs-warm latency on a deep query plus a concurrent
   determinism gate, emitting results/BENCH_serve.json (schema
   commrouting/bench_serve/v1).

   - "cold"/"warm": the same deep check (FIG6 under R1A, the ~7.4k-state
     exploration) issued twice against a fresh store.  The first pays
     the full exploration, the second is one framed-file read; the gate
     (--min-speedup, default 10) fails the run if memoization does not
     buy at least that factor.
   - "clients": N forked client processes (default 8) each issue the
     same request mix (checks, a batched sweep, a realization, a sharded
     BGP run) concurrently and digest the result bytes they got back.
     All digests must be identical, and identical to the digest of the
     same requests computed in-process through Service.Query — the
     daemon must be indistinguishable from the one-shot CLIs.
   - Everything in the artifact except wall times and the speedup is
     deterministic, so CI regenerates it and diffs against the committed
     one with --compare-ignoring-timings.

   Exit codes are the bench kit's: 2 for bad usage or an unreadable or
   foreign artifact, 1 for a failed gate, daemon/fork/socket trouble
   included. *)

open Service
module Json = Engine.Metrics.Json

let schema = "commrouting/bench_serve/v1"

(* ------------------------------------------------------------------ *)
(* Workload. *)

let deep_instance = "FIG6"
let deep_model = "R1A"
let qc = Protocol.default_query_config

let model name =
  match Engine.Model.of_string name with
  | Some m -> m
  | None -> assert false

(* The per-client request mix.  One of each expensive kind; the deep
   check is warm by the time clients run (the cold/warm phase primed
   it), so eight clients hammer the store concurrently. *)
let client_requests =
  [
    Protocol.Check
      { instance = "DISAGREE"; model = model "R1O"; config = qc; fresh = false };
    Protocol.Check
      { instance = "DISAGREE"; model = model "RMS"; config = qc; fresh = false };
    Protocol.Check
      { instance = deep_instance; model = model deep_model; config = qc; fresh = false };
    Protocol.Sweep
      {
        instance = "DISAGREE";
        models = [ model "R1O"; model "REA"; model "UMS" ];
        config = qc;
        fresh = false;
      };
    Protocol.Realize { source = model "R1S"; target = model "R1O" };
    Protocol.Bgp
      { nodes = 64; seed = 0; model = model "RMS"; shards = 2; fresh = false };
  ]

(* ------------------------------------------------------------------ *)
(* Daemon + client plumbing. *)

let fork_daemon ~socket ~store_dir ~workers =
  match Unix.fork () with
  | 0 -> (
    match
      Server.run
        {
          Server.socket;
          store = { Store.dir = store_dir; max_entries = Store.default_max_entries };
          workers;
        }
    with
    | Ok () -> exit 0
    | Error e ->
      Fmt.epr "serve_bench daemon: %a@." Error.pp e;
      exit (Error.exit_code e))
  | pid -> pid

let connect_retry socket =
  let deadline = Unix.gettimeofday () +. 30. in
  let rec go () =
    match Client.connect ~socket with
    | Ok c -> c
    | Error e ->
      if Unix.gettimeofday () > deadline then
        Kit.gatef "cannot reach the daemon at %s: %s" socket (Error.to_string e)
      else begin
        ignore (Unix.select [] [] [] 0.05);
        go ()
      end
  in
  go ()

let request c r =
  match Client.request c { Protocol.id = Json.Null; req = r } with
  | Error e -> Kit.gatef "request failed: %s" (Error.to_string e)
  | Ok j -> (
    match Json.member "ok" j with
    | Some (Json.Bool true) -> j
    | _ -> Kit.gatef "daemon answered an error: %s" (Json.to_string j))

let result_of j =
  match Json.member "result" j with
  | Some r -> r
  | None -> Kit.gatef "response lacks a result: %s" (Json.to_string j)

let cached_of j = Json.member "cached" j = Some (Json.Bool true)

(* Cache-hit flags are observational, not semantic: under concurrency
   whichever client arrives first computes and the rest hit the cache,
   so sweep results legitimately differ in their per-model [cached]
   fields.  Strip them before digesting — what must be identical is the
   answers, not who paid for them. *)
let rec drop_cached = function
  | Json.Obj fields ->
    Json.Obj
      (List.filter_map
         (fun (k, v) -> if k = "cached" then None else Some (k, drop_cached v))
         fields)
  | Json.List l -> Json.List (List.map drop_cached l)
  | v -> v

(* Digest of the result bytes a connection gets for the request mix. *)
let digest_over_connection c =
  let b = Buffer.create 1024 in
  List.iter
    (fun r ->
      Buffer.add_string b (Json.to_string (drop_cached (result_of (request c r))));
      Buffer.add_char b '\n')
    client_requests;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The same request mix computed in-process through the library — the
   one-shot-CLI equivalent the daemon must match byte-for-byte. *)
let reference_digest ~store_dir =
  let store =
    match Store.open_ { Store.dir = store_dir; max_entries = Store.default_max_entries } with
    | Ok s -> s
    | Error e -> Kit.gatef "reference store: %s" (Error.to_string e)
  in
  let q =
    match Query.create ~store ~workers:2 with
    | Ok q -> q
    | Error e -> Kit.gatef "reference query layer: %s" (Error.to_string e)
  in
  let compute = function
    | Protocol.Check { instance; model; config; fresh } -> (
      match Query.check q ~instance ~model ~config ~fresh with
      | Ok (r, _) -> r
      | Error e -> Kit.gatef "reference check: %s" (Error.to_string e))
    | Protocol.Sweep { instance; models; config; fresh } -> (
      match Query.sweep q ~instance ~models ~config ~fresh with
      | Ok r -> r
      | Error e -> Kit.gatef "reference sweep: %s" (Error.to_string e))
    | Protocol.Realize { source; target } -> Query.realize q ~source ~target
    | Protocol.Bgp { nodes; seed; model; shards; fresh } -> (
      match Query.bgp q ~nodes ~seed ~model ~shards ~fresh with
      | Ok (r, _) -> r
      | Error e -> Kit.gatef "reference bgp: %s" (Error.to_string e))
    | _ -> assert false
  in
  let b = Buffer.create 1024 in
  List.iter
    (fun r ->
      Buffer.add_string b (Json.to_string (drop_cached (compute r)));
      Buffer.add_char b '\n')
    client_requests;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* The run. *)

type measurement = {
  cold_s : float;
  warm_s : float;
  client_digests : string list;
  ref_digest : string;
}

let deep_check ~fresh =
  Protocol.Check
    { instance = deep_instance; model = model deep_model; config = qc; fresh }

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run ~clients ~workers =
  let pid = Unix.getpid () in
  let socket = Printf.sprintf "/tmp/serve-bench-%d.sock" pid in
  let store_dir = Printf.sprintf "/tmp/serve-bench-store-%d" pid in
  let ref_dir = Printf.sprintf "/tmp/serve-bench-ref-%d" pid in
  let cleanup () =
    ignore
      (Sys.command (Printf.sprintf "rm -rf %s %s %s" socket store_dir ref_dir))
  in
  cleanup ();
  let daemon = fork_daemon ~socket ~store_dir ~workers in
  let finally () =
    (try Unix.kill daemon Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] daemon) with Unix.Unix_error _ -> ());
    cleanup ()
  in
  Fun.protect ~finally @@ fun () ->
  let c = connect_retry socket in
  (* Cold/warm pair on the deep query. *)
  let cold_resp, cold_s = timed (fun () -> request c (deep_check ~fresh:false)) in
  let warm_resp, warm_s = timed (fun () -> request c (deep_check ~fresh:false)) in
  if cached_of cold_resp then Kit.gatef "first deep query was already cached";
  if not (cached_of warm_resp) then Kit.gatef "second deep query missed the cache";
  if Json.to_string (result_of cold_resp) <> Json.to_string (result_of warm_resp)
  then Kit.gatef "cold and warm results differ";
  (* Concurrent clients: fork first (children), compute the in-process
     reference only afterwards — no Domain.spawn happens in this
     process before the last fork. *)
  let children =
    List.init clients (fun _ ->
        let r, w = Unix.pipe ~cloexec:false () in
        match Unix.fork () with
        | 0 ->
          Unix.close r;
          Kit.run "serve_bench client" (fun () ->
              let digest = digest_over_connection (connect_retry socket) in
              ignore (Unix.write_substring w (digest ^ "\n") 0 (String.length digest + 1));
              Unix.close w)
        | pid ->
          Unix.close w;
          (pid, r))
  in
  let client_digests =
    List.map
      (fun (pid, r) ->
        let buf = Buffer.create 40 in
        let chunk = Bytes.create 64 in
        let rec drain () =
          match Unix.read r chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
        in
        drain ();
        Unix.close r;
        let _, status = Unix.waitpid [] pid in
        if status <> Unix.WEXITED 0 then Kit.gatef "a bench client failed";
        String.trim (Buffer.contents buf))
      children
  in
  let ref_digest = reference_digest ~store_dir:ref_dir in
  let bye = request c Protocol.Shutdown in
  ignore bye;
  Client.close c;
  { cold_s; warm_s; client_digests; ref_digest }

(* ------------------------------------------------------------------ *)
(* Artifact. *)

let to_json ~clients m =
  let speedup = if m.warm_s > 0. then m.cold_s /. m.warm_s else infinity in
  let digest = match m.client_digests with d :: _ -> d | [] -> "" in
  let deterministic =
    m.client_digests <> []
    && List.for_all (String.equal digest) m.client_digests
    && String.equal digest m.ref_digest
  in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ( "workload",
        Json.Obj
          [
            ("instance", Json.Str deep_instance);
            ("model", Json.Str deep_model);
            ("bound", Json.Num (float_of_int qc.Protocol.bound));
            ("max_states", Json.Num (float_of_int qc.Protocol.max_states));
          ] );
      ( "requests",
        Json.List
          (List.map
             (fun r -> Protocol.to_json { Protocol.id = Json.Null; req = r })
             client_requests) );
      ("cold_wall_s", Json.Num m.cold_s);
      ("warm_wall_s", Json.Num m.warm_s);
      ("speedup", Json.Num speedup);
      ("clients", Json.Num (float_of_int clients));
      ("digest", Json.Str digest);
      ("reference_digest", Json.Str m.ref_digest);
      ("deterministic", Json.Bool deterministic);
    ]

(* ------------------------------------------------------------------ *)
(* The artifact as the comparer sees it (see Kit): identical after
   blanking timings, unknown fields are an error. *)

let artifact =
  {
    Kit.schema;
    volatile_keys = [ "cold_wall_s"; "warm_wall_s"; "speedup" ];
    known_keys =
      [
        "schema"; "workload"; "instance"; "model"; "bound"; "max_states"; "requests";
        "id"; "method"; "params"; "models"; "fresh"; "source"; "target"; "nodes";
        "seed"; "shards"; "every"; "job"; "clients"; "digest"; "reference_digest";
        "deterministic";
      ];
    opaque_keys = [];
  }

(* ------------------------------------------------------------------ *)

let usage =
  "usage: serve_bench [-o FILE] [--clients N] [--workers N] [--min-speedup X]\n\
  \                   [--compare-ignoring-timings A B]\n\
   \  -o FILE          artifact path (default BENCH_serve.json)\n\
   \  --clients N      concurrent client processes (default 8)\n\
   \  --workers N      daemon worker domains (default 2)\n\
   \  --min-speedup X  exit 1 unless warm/cold speedup >= X (default 10;\n\
   \                   0 disables the gate)\n\
   \  --compare-ignoring-timings A B  exit 0 iff artifacts A and B are\n\
   \                   identical after blanking wall times; unknown fields\n\
   \                   are an error\n"

let main () =
  let path = ref "BENCH_serve.json" in
  let clients = ref 8 in
  let workers = ref 2 in
  let min_speedup = ref 10. in
  let int_arg name v k =
    match int_of_string_opt v with
    | Some n -> k n
    | None -> Kit.usagef "%s needs an integer" name
  in
  let rec parse = function
    | [] -> ()
    | "-o" :: file :: rest ->
      path := file;
      parse rest
    | "--clients" :: v :: rest ->
      int_arg "--clients" v (fun n -> clients := max 1 n);
      parse rest
    | "--workers" :: v :: rest ->
      int_arg "--workers" v (fun n -> workers := max 1 n);
      parse rest
    | "--min-speedup" :: v :: rest ->
      (match float_of_string_opt v with
      | Some f -> min_speedup := f
      | None -> Kit.usagef "--min-speedup needs a number");
      parse rest
    | [ (("-o" | "--clients" | "--workers" | "--min-speedup") as flag) ] ->
      Kit.usagef "%s needs an argument" flag
    | arg :: _ -> Kit.usagef "unknown argument %S" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  let m = run ~clients:!clients ~workers:!workers in
  let j = to_json ~clients:!clients m in
  Engine.Snapshot.write_atomic !path (Json.to_string j);
  let speedup = if m.warm_s > 0. then m.cold_s /. m.warm_s else infinity in
  Fmt.pr "deep query %s/%s: cold %.3fs, warm %.6fs (%.0fx)@." deep_instance
    deep_model m.cold_s m.warm_s speedup;
  Fmt.pr "%d concurrent clients, %d requests each@." !clients
    (List.length client_requests);
  Fmt.pr "wrote %s@." !path;
  (match m.client_digests with
  | [] -> Kit.gatef "no client digests collected"
  | d :: rest ->
    if not (List.for_all (String.equal d) rest) then
      Kit.gatef "concurrent clients disagree on result bytes";
    if not (String.equal d m.ref_digest) then
      Kit.gatef "daemon results differ from the in-process reference (%s vs %s)" d
        m.ref_digest;
    Fmt.pr "determinism: %d clients identical, equal to the one-shot reference@."
      !clients);
  if !min_speedup > 0. && speedup < !min_speedup then
    Kit.gatef "warm speedup %.1fx below the --min-speedup %.1fx gate" speedup
      !min_speedup
  else if !min_speedup > 0. then
    Fmt.pr "speedup gate: %.0fx >= %.0fx@." speedup !min_speedup

let () = Kit.run ~usage ~artifact "serve_bench" main

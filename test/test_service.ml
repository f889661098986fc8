(* Tests for the query-service layer (PR 10): protocol round-trip
   goldens for every request kind, the memoized result store's
   durability story (corrupt/truncated entries evicted not fatal,
   fingerprint mismatches refused, crash mid-put invisible, LRU cap,
   multi-domain get/put), write_atomic's per-writer temp-name
   uniqueness, instance-spec resolution, and the single exit-code
   mapping. *)

open Service
module Json = Engine.Metrics.Json

let model s =
  match Engine.Model.of_string s with
  | Some m -> m
  | None -> Alcotest.failf "bad model %s" s

let tmp_dir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "commrouting-service-%s-%d" name (Unix.getpid ()))
  in
  (match Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)) with
  | 0 -> ()
  | _ -> ());
  dir

let open_store ?(max_entries = Store.default_max_entries) name =
  match Store.open_ { Store.dir = tmp_dir name; max_entries } with
  | Ok s -> s
  | Error e -> Alcotest.failf "open_: %s" (Error.to_string e)

let write_raw path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let contains ~affix s =
  let n = String.length s and k = String.length affix in
  let rec scan i = i + k <= n && (String.sub s i k = affix || scan (i + 1)) in
  scan 0

(* ------------------------------------------------------------------ *)
(* Protocol *)

let qc = Protocol.default_query_config

let sample_envelopes =
  [
    ("ping", { Protocol.id = Json.Num 1.; req = Protocol.Ping });
    ( "check",
      {
        Protocol.id = Json.Num 2.;
        req =
          Protocol.Check
            { instance = "DISAGREE"; model = model "R1O"; config = qc; fresh = false };
      } );
    ( "sweep",
      {
        Protocol.id = Json.Str "s";
        req =
          Protocol.Sweep
            {
              instance = "FIG6";
              models = [ model "R1A"; model "UMS" ];
              config = { Protocol.bound = 2; max_states = 500 };
              fresh = true;
            };
      } );
    ( "realize",
      {
        Protocol.id = Json.Null;
        req = Protocol.Realize { source = model "R1S"; target = model "R1O" };
      } );
    ( "bgp",
      {
        Protocol.id = Json.Num 5.;
        req =
          Protocol.Bgp
            { nodes = 64; seed = 3; model = model "RMS"; shards = 4; fresh = false };
      } );
    ( "job_start",
      {
        Protocol.id = Json.Num 6.;
        req =
          Protocol.Job_start
            { instance = "FIG6"; model = model "R1A"; config = qc; every = 150 };
      } );
    ( "job_status",
      { Protocol.id = Json.Num 7.; req = Protocol.Job_status { job = "abc123" } } );
    ( "job_resume",
      { Protocol.id = Json.Num 8.; req = Protocol.Job_resume { job = "abc123" } } );
    ("stats", { Protocol.id = Json.Num 9.; req = Protocol.Stats });
    ("shutdown", { Protocol.id = Json.Num 10.; req = Protocol.Shutdown });
  ]

let test_protocol_roundtrip () =
  (* Every request kind survives encode -> parse unchanged. *)
  Alcotest.(check int)
    "every method has a sample" (List.length Protocol.methods)
    (List.length sample_envelopes);
  List.iter
    (fun (name, env) ->
      let line = Json.to_string (Protocol.to_json env) in
      match Protocol.of_line line with
      | Error (_, e) -> Alcotest.failf "%s: did not parse: %s" name (Error.to_string e)
      | Ok env' ->
        Alcotest.(check bool) (name ^ ": identical request") true (env = env');
        (* And the canonical encoding is a fixpoint. *)
        Alcotest.(check string)
          (name ^ ": canonical encoding stable")
          line
          (Json.to_string (Protocol.to_json env')))
    sample_envelopes

let test_protocol_goldens () =
  (* The wire format itself is locked: drift here breaks every deployed
     client, so it must be deliberate. *)
  let goldens =
    [
      ("ping", {|{"id":1,"method":"ping","params":{}}|});
      ( "check",
        {|{"id":2,"method":"check","params":{"instance":"DISAGREE","model":"R1O","bound":4,"max_states":200000,"fresh":false}}|}
      );
      ( "sweep",
        {|{"id":"s","method":"sweep","params":{"instance":"FIG6","models":["R1A","UMS"],"bound":2,"max_states":500,"fresh":true}}|}
      );
      ( "realize",
        {|{"id":null,"method":"realize","params":{"source":"R1S","target":"R1O"}}|}
      );
      ( "bgp",
        {|{"id":5,"method":"bgp","params":{"nodes":64,"seed":3,"model":"RMS","shards":4,"fresh":false}}|}
      );
      ( "job_start",
        {|{"id":6,"method":"job_start","params":{"instance":"FIG6","model":"R1A","bound":4,"max_states":200000,"every":150}}|}
      );
      ( "job_status",
        {|{"id":7,"method":"job_status","params":{"job":"abc123"}}|} );
      ( "job_resume",
        {|{"id":8,"method":"job_resume","params":{"job":"abc123"}}|} );
      ("stats", {|{"id":9,"method":"stats","params":{}}|});
      ("shutdown", {|{"id":10,"method":"shutdown","params":{}}|});
    ]
  in
  List.iter2
    (fun (name, env) (gname, golden) ->
      Alcotest.(check string) "same sample order" name gname;
      Alcotest.(check string)
        (name ^ ": golden wire format")
        golden
        (Json.to_string (Protocol.to_json env)))
    sample_envelopes goldens

let test_protocol_errors () =
  let err line =
    match Protocol.of_line line with
    | Ok _ -> Alcotest.failf "parsed unexpectedly: %s" line
    | Error (id, e) -> (id, e)
  in
  (match err "not json at all" with
  | _, Error.Usage _ -> ()
  | _, e -> Alcotest.failf "junk line: got %s" (Error.to_string e));
  (match err {|{"id":7,"method":"frobnicate"}|} with
  | Json.Num 7., Error.Usage m ->
    Alcotest.(check bool) "lists known methods" true
      (contains ~affix:"check" m)
  | _, e -> Alcotest.failf "unknown method: got %s" (Error.to_string e));
  (match err {|{"method":"check","params":{"instance":"X","model":"ZZZ"}}|} with
  | _, Error.Unknown_model "ZZZ" -> ()
  | _, e -> Alcotest.failf "unknown model: got %s" (Error.to_string e));
  (match err {|{"method":"check","params":{"model":"R1O"}}|} with
  | _, Error.Usage _ -> ()
  | _, e -> Alcotest.failf "missing instance: got %s" (Error.to_string e));
  (match err {|{"method":"check","params":{"instance":"X","model":"R1O","bound":0}}|} with
  | _, Error.Usage _ -> ()
  | _, e -> Alcotest.failf "bad bound: got %s" (Error.to_string e));
  (* The id is echoed even when the params are garbage. *)
  match err {|{"id":"q-1","method":"bgp","params":{"nodes":1}}|} with
  | Json.Str "q-1", Error.Usage _ -> ()
  | id, e ->
    Alcotest.failf "id not echoed: %s / %s" (Json.to_string id) (Error.to_string e)

(* ------------------------------------------------------------------ *)
(* Store *)

let fp parts = Store.config_fingerprint parts
let v1 = fp [ "schema/v1" ]
let result_json i = Json.Obj [ ("answer", Json.Num (float_of_int i)) ]

let put_ok store ~instance ~model ~config_fp r =
  match Store.put store ~instance ~model ~config_fp r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "put: %s" (Error.to_string e)

let test_store_roundtrip () =
  let s = open_store "roundtrip" in
  Alcotest.(check (option reject)) "empty store misses"
    None
    (Option.map ignore (Store.get s ~instance:"i1" ~model:"R1O" ~config_fp:v1));
  put_ok s ~instance:"i1" ~model:"R1O" ~config_fp:v1 (result_json 1);
  (match Store.get s ~instance:"i1" ~model:"R1O" ~config_fp:v1 with
  | Some r -> Alcotest.(check bool) "hit returns the stored result" true (r = result_json 1)
  | None -> Alcotest.fail "expected a hit");
  (* Distinct key components are distinct entries. *)
  Alcotest.(check bool) "other model misses" true
    (Store.get s ~instance:"i1" ~model:"RMS" ~config_fp:v1 = None);
  Alcotest.(check bool) "other config misses" true
    (Store.get s ~instance:"i1" ~model:"R1O" ~config_fp:(fp [ "schema/v2" ]) = None);
  let st = Store.stats s in
  Alcotest.(check int) "hits" 1 st.Store.hits;
  Alcotest.(check int) "misses" 3 st.Store.misses;
  Alcotest.(check int) "puts" 1 st.Store.puts

let test_store_corrupt_evicted () =
  let s = open_store "corrupt" in
  put_ok s ~instance:"i" ~model:"R1O" ~config_fp:v1 (result_json 1);
  let key = Store.key ~instance:"i" ~model:"R1O" ~config_fp:v1 in
  let path = Store.entry_path s ~key in
  (* Truncate the framed file mid-payload: a torn write that slipped past
     rename could only ever look like this. *)
  let full = In_channel.with_open_bin path In_channel.input_all in
  write_raw path (String.sub full 0 (String.length full - 7));
  Alcotest.(check bool) "truncated entry is a miss, not an exception" true
    (Store.get s ~instance:"i" ~model:"R1O" ~config_fp:v1 = None);
  Alcotest.(check bool) "evicted from disk" false (Sys.file_exists path);
  (* Same for plain bit-rot. *)
  put_ok s ~instance:"i" ~model:"R1O" ~config_fp:v1 (result_json 2);
  write_raw path (String.map (fun c -> if c = '4' then '5' else c) full);
  Alcotest.(check bool) "corrupt entry is a miss" true
    (Store.get s ~instance:"i" ~model:"R1O" ~config_fp:v1 = None);
  Alcotest.(check bool) "corrupt entry evicted" false (Sys.file_exists path);
  Alcotest.(check int) "both evictions counted" 2 (Store.stats s).Store.corrupt_evicted;
  (* The store still works after evictions. *)
  put_ok s ~instance:"i" ~model:"R1O" ~config_fp:v1 (result_json 3);
  Alcotest.(check bool) "store recovers" true
    (Store.get s ~instance:"i" ~model:"R1O" ~config_fp:v1 = Some (result_json 3))

let test_store_fingerprint_mismatch () =
  (* The stale-cache regression (mirrors Snapshot's mismatched-resume
     rejection): a well-formed entry sitting at some key but recording
     different key fields inside must be refused and evicted — after a
     schema bump, a colliding path must never serve the old result. *)
  let s = open_store "mismatch" in
  let v2 = fp [ "schema/v2" ] in
  put_ok s ~instance:"i" ~model:"R1O" ~config_fp:v1 (result_json 1);
  let key_v1 = Store.key ~instance:"i" ~model:"R1O" ~config_fp:v1 in
  let key_v2 = Store.key ~instance:"i" ~model:"R1O" ~config_fp:v2 in
  (* Simulate the bump: the v1 entry ends up at the v2 key (as it would
     if the fingerprint function or the key scheme drifted). *)
  Sys.rename (Store.entry_path s ~key:key_v1) (Store.entry_path s ~key:key_v2);
  Alcotest.(check bool) "mismatched entry refused" true
    (Store.get s ~instance:"i" ~model:"R1O" ~config_fp:v2 = None);
  Alcotest.(check bool) "mismatched entry evicted" false
    (Sys.file_exists (Store.entry_path s ~key:key_v2));
  Alcotest.(check int) "counted as mismatch, not corruption" 1
    (Store.stats s).Store.mismatch_evicted;
  Alcotest.(check int) "no corrupt evictions" 0 (Store.stats s).Store.corrupt_evicted;
  (* A schema-version bump changes the fingerprint, so the old entry is
     simply invisible under the new one — and vice versa. *)
  put_ok s ~instance:"i" ~model:"R1O" ~config_fp:v1 (result_json 1);
  put_ok s ~instance:"i" ~model:"R1O" ~config_fp:v2 (result_json 2);
  Alcotest.(check bool) "v1 still served under v1" true
    (Store.get s ~instance:"i" ~model:"R1O" ~config_fp:v1 = Some (result_json 1));
  Alcotest.(check bool) "v2 served under v2" true
    (Store.get s ~instance:"i" ~model:"R1O" ~config_fp:v2 = Some (result_json 2))

let test_store_crash_mid_put () =
  (* A writer killed mid-put leaves only a temp file: never visible to
     get/entry_count, and swept on the next open. *)
  let s = open_store "crash" in
  put_ok s ~instance:"a" ~model:"R1O" ~config_fp:v1 (result_json 1);
  let key = Store.key ~instance:"b" ~model:"R1O" ~config_fp:v1 in
  let tmp = Store.entry_path s ~key ^ ".tmp.12345.0.7" in
  write_raw tmp "partial garbage from a dead writer";
  Alcotest.(check bool) "partial entry invisible to get" true
    (Store.get s ~instance:"b" ~model:"R1O" ~config_fp:v1 = None);
  Alcotest.(check int) "partial entry not counted" 1 (Store.entry_count s);
  (* Reopening the store (a daemon restart) sweeps the debris. *)
  (match Store.open_ { Store.dir = Store.dir s; max_entries = 16 } with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "reopen: %s" (Error.to_string e));
  Alcotest.(check bool) "stale temp swept on open" false (Sys.file_exists tmp);
  Alcotest.(check bool) "real entry survived the sweep" true
    (Store.get s ~instance:"a" ~model:"R1O" ~config_fp:v1 = Some (result_json 1))

let test_store_lru_cap () =
  let s = open_store "lru" ~max_entries:3 in
  let put i name = put_ok s ~instance:name ~model:"R1O" ~config_fp:v1 (result_json i) in
  let path name =
    Store.entry_path s ~key:(Store.key ~instance:name ~model:"R1O" ~config_fp:v1)
  in
  let set_mtime name t = Unix.utimes (path name) t t in
  put 1 "a";
  put 2 "b";
  put 3 "c";
  (* Distinct, controlled recencies (well in the past). *)
  set_mtime "a" 1000.;
  set_mtime "b" 2000.;
  set_mtime "c" 3000.;
  put 4 "d";
  Alcotest.(check bool) "oldest evicted" true
    (Store.get s ~instance:"a" ~model:"R1O" ~config_fp:v1 = None);
  Alcotest.(check bool) "b survives" true (Sys.file_exists (path "b"));
  Alcotest.(check bool) "c survives" true (Sys.file_exists (path "c"));
  Alcotest.(check bool) "new entry present" true (Sys.file_exists (path "d"));
  Alcotest.(check int) "cap respected" 3 (Store.entry_count s);
  (* A hit refreshes recency: get b, then overflow again — c (now the
     coldest) goes, b stays. *)
  ignore (Store.get s ~instance:"b" ~model:"R1O" ~config_fp:v1);
  set_mtime "d" 4000.;
  put 5 "e";
  Alcotest.(check bool) "unrefreshed c evicted" false (Sys.file_exists (path "c"));
  Alcotest.(check bool) "refreshed b survives" true (Sys.file_exists (path "b"));
  Alcotest.(check int) "lru evictions counted" 2 (Store.stats s).Store.lru_evicted

let test_store_concurrent () =
  (* Multi-domain get/put on overlapping keys: no exceptions, no torn
     reads — every hit returns exactly the (deterministic) value its key
     maps to. *)
  let s = open_store "concurrent" in
  let n_domains = 4 and rounds = 40 and n_keys = 8 in
  let errors = Atomic.make 0 in
  let worker d () =
    for r = 0 to rounds - 1 do
      let k = (d + r) mod n_keys in
      let instance = Printf.sprintf "inst-%d" k in
      (match Store.put s ~instance ~model:"R1O" ~config_fp:v1 (result_json k) with
      | Ok () -> ()
      | Error _ -> Atomic.incr errors);
      match Store.get s ~instance ~model:"R1O" ~config_fp:v1 with
      | None -> () (* racing evictions are legal; wrong values are not *)
      | Some r -> if r <> result_json k then Atomic.incr errors
    done
  in
  let domains = List.init n_domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join domains;
  Alcotest.(check int) "no errors or torn reads" 0 (Atomic.get errors);
  for k = 0 to n_keys - 1 do
    let instance = Printf.sprintf "inst-%d" k in
    Alcotest.(check bool)
      (Printf.sprintf "final value of key %d intact" k)
      true
      (Store.get s ~instance ~model:"R1O" ~config_fp:v1 = Some (result_json k))
  done

let test_write_atomic_domain_unique () =
  (* The regression for pid-only temp names: two domains writing the same
     target path concurrently must never clobber each other's temp file —
     the target must be a complete, checksummed frame after every write,
     and no temp debris may survive. *)
  let dir = tmp_dir "write-atomic" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "target" in
  let magic = "commrouting/test/v1" in
  let torn = Atomic.make 0 in
  let writer d () =
    for i = 0 to 49 do
      let payload =
        Json.to_string (Json.Obj [ ("writer", Json.Num (float_of_int ((d * 100) + i))) ])
      in
      Engine.Snapshot.write_atomic path (Engine.Snapshot.framed ~magic payload);
      match Engine.Snapshot.read_framed ~magic path with
      | Ok _ -> ()
      | Error _ -> Atomic.incr torn
    done
  in
  let domains = List.init 4 (fun d -> Domain.spawn (writer d)) in
  List.iter Domain.join domains;
  Alcotest.(check int) "no torn frame ever visible" 0 (Atomic.get torn);
  let leftovers =
    Sys.readdir dir |> Array.to_list |> List.filter (fun f -> f <> "target")
  in
  Alcotest.(check (list string)) "no temp debris" [] leftovers

(* ------------------------------------------------------------------ *)
(* Resolve, Error, Query *)

let test_resolve () =
  (match Resolve.find "DISAGREE" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "DISAGREE: %s" (Error.to_string e));
  (match Resolve.find "disagree" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "case-insensitive: %s" (Error.to_string e));
  (match Resolve.find "bgp:7" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "bgp:7: %s" (Error.to_string e));
  (match Resolve.find "no-such-gadget" with
  | Error (Error.Unknown_instance { hint; _ }) ->
    Alcotest.(check bool) "hint lists specs" true
      (contains ~affix:"bgp:<seed>" hint)
  | Error e -> Alcotest.failf "unknown: wrong error %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "resolved nonsense");
  (match Resolve.find "bgp:notanint" with
  | Error (Error.Usage _) -> ()
  | Error e -> Alcotest.failf "bad seed: wrong error %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "resolved bad seed");
  (match Resolve.find "file:/nonexistent/x.spp" with
  | Error (Error.Io _ | Error.Corrupt _) -> ()
  | Error e -> Alcotest.failf "missing file: wrong error %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "resolved missing file");
  (* Determinism: the digests memo keys are built on. *)
  match (Resolve.find "bgp:3", Resolve.find "bgp:3") with
  | Ok a, Ok b ->
    Alcotest.(check string) "spec resolution deterministic"
      (Engine.Snapshot.fingerprint a) (Engine.Snapshot.fingerprint b)
  | _ -> Alcotest.fail "bgp:3 did not resolve"

let test_error_exit_codes () =
  Alcotest.(check int) "usage is 2" 2 (Error.exit_code (Error.Usage "x"));
  List.iter
    (fun e -> Alcotest.(check int) (Error.kind e ^ " is 1") 1 (Error.exit_code e))
    [
      Error.Unknown_instance { name = "x"; hint = "" };
      Error.Unknown_model "x";
      Error.Io { path = "p"; message = "m" };
      Error.Corrupt { path = "p"; detail = "d" };
      Error.Unknown_job "j";
      Error.Internal "i";
    ]

let test_query_memoized () =
  let s = open_store "query" in
  let q =
    match Query.create ~store:s ~workers:2 with
    | Ok q -> q
    | Error e -> Alcotest.failf "create: %s" (Error.to_string e)
  in
  let config = { Protocol.bound = 4; max_states = 50_000 } in
  let run fresh =
    match Query.check q ~instance:"DISAGREE" ~model:(model "R1O") ~config ~fresh with
    | Ok (r, cached) -> (Json.to_string r, cached)
    | Error e -> Alcotest.failf "check: %s" (Error.to_string e)
  in
  let cold, c0 = run false in
  let warm, c1 = run false in
  let fresh, c2 = run true in
  Alcotest.(check bool) "first is a miss" false c0;
  Alcotest.(check bool) "second is a hit" true c1;
  Alcotest.(check bool) "fresh bypasses the cache" false c2;
  Alcotest.(check string) "warm result byte-identical" cold warm;
  Alcotest.(check string) "fresh recompute byte-identical" cold fresh;
  (* The cached bytes equal an uncached in-process reference. *)
  let inst =
    match Resolve.find "DISAGREE" with Ok i -> i | Error _ -> assert false
  in
  Alcotest.(check string) "matches compute_check reference" cold
    (Json.to_string (Query.compute_check inst (model "R1O") config));
  (* With metrics: the same bytes, and the analysis and witness replay
     show up as phases beside exploration. *)
  let metrics = Engine.Metrics.create () in
  Alcotest.(check string) "metrics leave the result unchanged" cold
    (Json.to_string (Query.compute_check ~metrics inst (model "R1O") config));
  Alcotest.(check (list string)) "phases" [ "explore"; "analyze"; "witness" ]
    (List.map fst (Engine.Metrics.phases metrics));
  Alcotest.(check bool) "fair-cycle counters filled" true
    (Engine.Metrics.fair_splits metrics > 0);
  (* Unknown job id surfaces as a typed error end to end. *)
  let jobs =
    match Jobs.create ~store:s with
    | Ok j -> j
    | Error e -> Alcotest.failf "jobs: %s" (Error.to_string e)
  in
  match Jobs.status jobs ~id:"deadbeef" with
  | Error (Error.Unknown_job "deadbeef") -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "status of unknown job succeeded"

(* ------------------------------------------------------------------ *)
(* Server: the compute guard and the line reader *)

let parse_line line =
  match Json.parse (String.trim line) with
  | Ok j -> j
  | Error m -> Alcotest.failf "unparseable response %S: %s" line m

let error_kind j =
  match Json.member "error" j with
  | Some e -> (
    match Json.member "kind" e with Some (Json.Str k) -> k | _ -> "?")
  | None -> "none"

(* A raising compute answers [Internal] with its own request id, whether
   the batch runs inline (one task) or on the pool. *)
let test_guard_both_branches () =
  let run_computes works =
    Engine.Pool.map (Engine.Pool.get ()) ~workers:2 (fun work -> work ()) (Array.of_list works)
  in
  let boom () = failwith "boom" in
  let fine () = Protocol.ok_line ~id:(Json.Num 8.) (Json.Bool true) in
  let check_internal what id line =
    let j = parse_line line in
    Alcotest.(check bool) (what ^ ": id kept") true (Json.member "id" j = Some id);
    Alcotest.(check string) (what ^ ": internal") (Error.kind (Error.Internal ""))
      (error_kind j)
  in
  (match run_computes [ Server.guard ~id:(Json.Num 7.) boom ] with
  | [| line |] -> check_internal "single" (Json.Num 7.) line
  | _ -> Alcotest.fail "single: one answer expected");
  match
    run_computes
      [
        Server.guard ~id:(Json.Str "a") boom;
        Server.guard ~id:(Json.Num 8.) fine;
        Server.guard ~id:(Json.Num 9.) boom;
      ]
  with
  | [| a; b; c |] ->
    check_internal "pooled first" (Json.Str "a") a;
    Alcotest.(check string) "pooled ok answer untouched" (fine ()) b;
    check_internal "pooled last" (Json.Num 9.) c
  | _ -> Alcotest.fail "pooled: three answers expected"

let test_split_lines () =
  let pending = Buffer.create 16 in
  let feed s = Server.split_lines pending (Bytes.of_string s) (String.length s) in
  let line = {|{"id":1,"method":"ping"}|} in
  let got = ref [] in
  String.iter (fun ch -> got := !got @ feed (String.make 1 ch)) (line ^ "\n");
  Alcotest.(check (list string)) "byte by byte" [ line ] !got;
  Alcotest.(check int) "nothing pending" 0 (Buffer.length pending);
  Alcotest.(check (list string)) "several in one read, tail kept" [ "a"; ""; "bc" ]
    (feed "a\n\nbc\nde");
  Alcotest.(check (list string)) "tail completed" [ "def" ] (feed "f\ng");
  (* Only the first [n] bytes of the chunk count. *)
  Alcotest.(check (list string)) "bytes past n ignored" [ "gh" ]
    (Server.split_lines pending (Bytes.of_string "h\nzz\n") 2)

(* A live daemon on its own domain for the duration of [f socket]; [f]
   must end with a shutdown request. *)
let with_daemon name f =
  let dir = tmp_dir name in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cr-%s-%d.sock" name (Unix.getpid ()))
  in
  let ready = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Server.run
          ~on_ready:(fun () -> Atomic.set ready true)
          {
            Server.socket;
            store = { Store.dir; max_entries = Store.default_max_entries };
            workers = 2;
          })
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.005
  done;
  f socket;
  match Domain.join daemon with
  | Ok () -> ()
  | Error e -> Alcotest.failf "daemon: %s" (Error.to_string e)

let ok = function Ok x -> x | Error e -> Alcotest.failf "%s" (Error.to_string e)

(* A client whose every wait for an answer is bounded, so a daemon that
   stops answering fails the test instead of hanging it. *)
let connect socket =
  let c = ok (Client.connect ~socket) in
  Client.set_timeout c (Some 30.);
  c
let id_of j = match Json.member "id" j with Some v -> v | None -> Json.Null

let shutdown c =
  ignore (ok (Client.request c { Protocol.id = Json.Num 9.; req = Protocol.Shutdown }));
  Client.close c

(* End to end on a live daemon: one request delivered in many small
   writes, then several requests in one write, answered whole and in
   order. *)
let test_daemon_framing () =
  with_daemon "framing" (fun socket ->
      let c = connect socket in
      let req = {|{"id":41,"method":"ping"}|} ^ "\n" in
      String.iteri
        (fun i ch ->
          ok (Client.send_raw c (String.make 1 ch));
          if i mod 4 = 0 then Unix.sleepf 0.002)
        req;
      let j = ok (Client.read_json c) in
      Alcotest.(check bool) "split request answered" true (id_of j = Json.Num 41.);
      let check =
        {|{"id":2,"method":"check","params":{"instance":"DISAGREE","model":"R1O","bound":2,"max_states":500}}|}
      in
      ok
        (Client.send_raw c
           (String.concat "\n"
              [ {|{"id":1,"method":"ping"}|}; check; {|{"id":3,"method":"ping"}|}; "" ]));
      List.iter
        (fun want ->
          let j = ok (Client.read_json c) in
          Alcotest.(check bool)
            (Printf.sprintf "answer %g in order" want)
            true
            (id_of j = Json.Num want);
          Alcotest.(check bool) "ok" true (Json.member "ok" j = Some (Json.Bool true)))
        [ 1.; 2.; 3. ];
      shutdown c)

(* A client that sends more than [Server.max_line] bytes without a newline
   gets one usage error and is disconnected; another client is still
   served. *)
let test_daemon_oversized_line () =
  with_daemon "oversized" (fun socket ->
      let other = connect socket in
      let hog = connect socket in
      ok (Client.send_raw hog (String.make (Server.max_line + 1) 'x'));
      let j = ok (Client.read_json hog) in
      Alcotest.(check string) "usage error" (Error.kind (Error.Usage "")) (error_kind j);
      (match Client.read_json hog with
      | Error _ -> ()
      | Ok j -> Alcotest.failf "hog still connected: %s" (Json.to_string j));
      Client.close hog;
      let ping = { Protocol.id = Json.Num 5.; req = Protocol.Ping } in
      let j = ok (Client.request other ping) in
      Alcotest.(check bool) "other client served" true
        (id_of j = Json.Num 5. && Json.member "ok" j = Some (Json.Bool true));
      shutdown other)

(* A socket that accepts connections (the kernel's backlog) but never
   answers: a bounded read gives up with an I/O error. *)
let test_client_timeout () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cr-mute-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close listener;
      try Unix.unlink socket with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind listener (Unix.ADDR_UNIX socket);
      Unix.listen listener 4;
      let c = ok (Client.connect ~socket) in
      Client.set_timeout c (Some 0.2);
      let t0 = Unix.gettimeofday () in
      (match Client.request c { Protocol.id = Json.Num 1.; req = Protocol.Ping } with
      | Error (Error.Io _) -> ()
      | Error e -> Alcotest.failf "expected an I/O error, got %s" (Error.to_string e)
      | Ok j -> Alcotest.failf "a mute socket answered %s" (Json.to_string j));
      let waited = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "gave up after the bound" true (waited >= 0.15 && waited < 10.);
      Client.close c)

let () =
  Alcotest.run "service"
    [
      ( "protocol",
        [
          Alcotest.test_case "round-trip every request kind" `Quick
            test_protocol_roundtrip;
          Alcotest.test_case "wire-format goldens" `Quick test_protocol_goldens;
          Alcotest.test_case "typed decode errors" `Quick test_protocol_errors;
        ] );
      ( "store",
        [
          Alcotest.test_case "round-trip and stats" `Quick test_store_roundtrip;
          Alcotest.test_case "corrupt/truncated entries evicted" `Quick
            test_store_corrupt_evicted;
          Alcotest.test_case "fingerprint mismatch refused" `Quick
            test_store_fingerprint_mismatch;
          Alcotest.test_case "crash mid-put invisible" `Quick test_store_crash_mid_put;
          Alcotest.test_case "LRU cap enforced" `Quick test_store_lru_cap;
          Alcotest.test_case "concurrent multi-domain get/put" `Quick
            test_store_concurrent;
          Alcotest.test_case "write_atomic unique across domains" `Quick
            test_write_atomic_domain_unique;
        ] );
      ( "service",
        [
          Alcotest.test_case "instance resolution" `Quick test_resolve;
          Alcotest.test_case "exit codes mapped once" `Quick test_error_exit_codes;
          Alcotest.test_case "query memoization" `Quick test_query_memoized;
        ] );
      ( "server",
        [
          Alcotest.test_case "raising compute answers internal, both branches" `Quick
            test_guard_both_branches;
          Alcotest.test_case "line splitting scans new bytes" `Quick test_split_lines;
          Alcotest.test_case "daemon framing: split and batched requests" `Quick
            test_daemon_framing;
          Alcotest.test_case "oversized line answered and closed" `Quick
            test_daemon_oversized_line;
          Alcotest.test_case "bounded read gives up on a mute daemon" `Quick
            test_client_timeout;
        ] );
    ]

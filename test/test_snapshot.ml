(* Crash-safety tests for the checkpoint/resume subsystem (PR 5):
   snapshot round-trips, the strict-byte-prefix property for snapshot and
   corpus files (loading any prefix fails with [Error], never raises,
   never half-loads), the conformance journal's crash/compaction behavior,
   stale temp-file cleanup,
   and a kill-and-resume integration test asserting a resumed exploration
   matches an uninterrupted one on states/edges/flags/verdict across all
   24 models. *)

open Spp
open Engine
open Modelcheck

let model s =
  match Model.of_string s with Some m -> m | None -> Alcotest.failf "bad model %s" s

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("commrouting-test-" ^ name)

let write_raw path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

(* Canonical label rendering: [Activation.t] holds an [IntSet] whose
   internal tree shape depends on construction order, so polymorphic
   equality is not a reliable label comparison — the serialized form is. *)
let label_key inst (l : Enumerate.labeled) =
  ( Conformance.Corpus.Json.to_string
      (Conformance.Corpus.entries_to_json inst [ l.Enumerate.entry ]),
    l.Enumerate.reads,
    l.Enumerate.drops,
    l.Enumerate.cleans )

let check_same_graph inst name (a : Explore.graph) (b : Explore.graph) =
  Alcotest.(check int)
    (name ^ ": state count")
    (Array.length a.Explore.states)
    (Array.length b.Explore.states);
  Array.iteri
    (fun i st ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: state %d identical" name i)
        true
        (State.equal st b.Explore.states.(i)))
    a.Explore.states;
  Alcotest.(check bool) (name ^ ": pruned") a.Explore.pruned b.Explore.pruned;
  Alcotest.(check bool) (name ^ ": truncated") a.Explore.truncated b.Explore.truncated;
  Array.iteri
    (fun i ea ->
      let eb = b.Explore.adjacency.(i) in
      let key (e : Explore.edge) = (e.Explore.dst, label_key inst e.Explore.label) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: row %d edges identical" name i)
        true
        (List.map key ea = List.map key eb))
    a.Explore.adjacency;
  Alcotest.(check string)
    (name ^ ": verdict")
    (Oscillation.verdict_name (Oscillation.analyze_graph inst a))
    (Oscillation.verdict_name (Oscillation.analyze_graph inst b))

(* A completed exploration as a snapshot value (empty frontier). *)
let snapshot_of_graph (config : Explore.config) (g : Explore.graph) : Snapshot.t =
  let conv (e : Explore.edge) =
    {
      Snapshot.dst = e.Explore.dst;
      label =
        {
          Snapshot.entry = e.Explore.label.Enumerate.entry;
          l_reads = e.Explore.label.Enumerate.reads;
          l_drops = e.Explore.label.Enumerate.drops;
          l_cleans = e.Explore.label.Enumerate.cleans;
        };
    }
  in
  let rows = ref [] and edges = ref 0 in
  Array.iteri
    (fun i es ->
      edges := !edges + List.length es;
      rows := (i, List.map conv es) :: !rows)
    g.Explore.adjacency;
  {
    Snapshot.channel_bound = config.Explore.channel_bound;
    max_states = config.Explore.max_states;
    reduction = "none";
    states = g.Explore.states;
    rows = !rows;
    frontier = [];
    pruned = g.Explore.pruned;
    truncated = g.Explore.truncated;
    counters =
      {
        Snapshot.interned = Array.length g.Explore.states;
        dedup = 0;
        edges = !edges;
        pruned_writes = 0;
        truncated_interns = 0;
        peak_frontier = 0;
        ample = 0;
      };
  }

(* ------------------------------------------------------------------ *)
(* Round-trip *)

let test_snapshot_roundtrip () =
  let inst = Gadgets.disagree in
  let config = Explore.default_config in
  let g = Explore.explore ~config ~domains:1 inst (model "R1O") in
  let snap = snapshot_of_graph config g in
  let path = tmp "roundtrip.snap" in
  Snapshot.save ~path inst snap;
  (match Snapshot.load ~path inst with
  | Error e -> Alcotest.failf "load failed: %s" (Snapshot.error_to_string e)
  | Ok got ->
    Alcotest.(check int) "channel_bound" snap.Snapshot.channel_bound got.Snapshot.channel_bound;
    Alcotest.(check int) "max_states" snap.Snapshot.max_states got.Snapshot.max_states;
    Alcotest.(check int)
      "state count"
      (Array.length snap.Snapshot.states)
      (Array.length got.Snapshot.states);
    Array.iteri
      (fun i st ->
        Alcotest.(check bool)
          (Printf.sprintf "state %d digest" i)
          true
          (State.equal st got.Snapshot.states.(i)))
      snap.Snapshot.states;
    Alcotest.(check int)
      "row count"
      (List.length snap.Snapshot.rows)
      (List.length got.Snapshot.rows);
    Alcotest.(check (list int)) "frontier" snap.Snapshot.frontier got.Snapshot.frontier;
    Alcotest.(check int) "edges counter" snap.Snapshot.counters.Snapshot.edges
      got.Snapshot.counters.Snapshot.edges);
  Sys.remove path

let test_snapshot_wrong_instance () =
  let inst = Gadgets.disagree in
  let config = Explore.default_config in
  let g = Explore.explore ~config ~domains:1 inst (model "REA") in
  let path = tmp "wrong-instance.snap" in
  Snapshot.save ~path inst (snapshot_of_graph config g);
  (match Snapshot.load ~path Gadgets.fig6 with
  | Error (Snapshot.Mismatch _) -> ()
  | Error e -> Alcotest.failf "expected Mismatch, got %s" (Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "loaded a snapshot against the wrong instance");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Strict-byte-prefix property: every proper prefix of a valid artifact
   fails with [Error] — never an exception, never a half-loaded value. *)

let prefix_lengths n =
  (* All prefixes for small files; for larger ones every length in the
     first/last 512 bytes (header, digest and truncation boundaries) plus
     a dense stride through the middle. *)
  if n <= 8192 then List.init n Fun.id
  else
    let step = max 1 (n / 2048) in
    let rec strided acc i = if i >= n then acc else strided (i :: acc) (i + step) in
    List.sort_uniq compare
      (List.init 512 Fun.id
      @ List.init 512 (fun i -> n - 1 - i)
      @ strided [] 512)

let test_snapshot_prefixes_fail () =
  let inst = Gadgets.disagree in
  let config = Explore.default_config in
  let g = Explore.explore ~config ~domains:1 inst (model "R1O") in
  let path = tmp "prefix.snap" in
  Snapshot.save ~path inst (snapshot_of_graph config g);
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let n = String.length contents in
  let part = tmp "prefix.snap.part" in
  List.iter
    (fun len ->
      write_raw part (String.sub contents 0 len);
      match Snapshot.load ~path:part inst with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "prefix of %d/%d bytes loaded successfully" len n
      | exception e ->
        Alcotest.failf "prefix of %d/%d bytes raised %s" len n (Printexc.to_string e))
    (prefix_lengths n);
  Sys.remove path;
  Sys.remove part

let sample_corpus_entry () =
  Conformance.Trial.force_routes ();
  let f = List.hd Realization.Facts.positives in
  let inst_name, inst = List.hd (Conformance.Fuzz.instance_pool ~seeds:1) in
  let entries =
    Conformance.Fuzz.schedule inst f.Realization.Facts.realized ~seed:7 ~len:10
  in
  let trial = Conformance.Trial.of_fact f ~inst_name inst entries in
  Conformance.Corpus.positive ~name:"prefix-test" ~expect:Conformance.Corpus.Expect_holds
    trial

(* Both corpus schemas share one file codec; [load] is the codec's,
   mapped to unit. *)
let check_prefixes_fail what ~save ~load =
  let path = tmp ("prefix." ^ what ^ ".json") in
  save path;
  (match load path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "the full %s file must load: %s" what e);
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let n = String.length contents in
  let part = path ^ ".part" in
  List.iter
    (fun len ->
      write_raw part (String.sub contents 0 len);
      match load part with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s prefix of %d/%d bytes loaded successfully" what len n
      | exception e ->
        Alcotest.failf "%s prefix of %d/%d bytes raised %s" what len n
          (Printexc.to_string e))
    (prefix_lengths n);
  Sys.remove path;
  Sys.remove part

let test_corpus_prefixes_fail () =
  let entry = sample_corpus_entry () in
  check_prefixes_fail "corpus"
    ~save:(fun p -> Conformance.Corpus.save p entry)
    ~load:(fun p -> Result.map ignore (Conformance.Corpus.load p));
  let finding =
    {
      Hunt.Corpus.name = "prefix-test";
      seed = 0;
      descr = "DISAGREE";
      inst = Gadgets.disagree;
      kind = Hunt.Corpus.Divergence { model = model "R1O" };
      channel_bound = 3;
      max_states = 4_000;
    }
  in
  check_prefixes_fail "hunt"
    ~save:(fun p -> Hunt.Corpus.save p finding)
    ~load:(fun p -> Result.map ignore (Hunt.Corpus.load p))

(* [emit] makes the directory it writes into, parents included. *)
let test_corpus_emit_makes_dirs () =
  let root = tmp (Printf.sprintf "emit-%d" (Unix.getpid ())) in
  let dir = Filename.concat (Filename.concat root "a") "b" in
  let path = Conformance.Corpus.emit dir "entry" (sample_corpus_entry ()) in
  Alcotest.(check string) "path" (Filename.concat dir "entry.json") path;
  (match Conformance.Corpus.load path with
  | Ok e -> Alcotest.(check string) "entry loads back" "prefix-test" e.Conformance.Corpus.name
  | Error e -> Alcotest.failf "emitted entry does not load: %s" e);
  Sys.remove path;
  List.iter Sys.rmdir [ dir; Filename.dirname dir; root ]

(* ------------------------------------------------------------------ *)
(* Journal *)

let test_journal_resume_and_partial_line () =
  let path = tmp "journal.txt" in
  let fp = Conformance.Journal.fingerprint ~seeds:3 () in
  let entries =
    [
      Conformance.Journal.Positive { index = 0; held = true };
      Conformance.Journal.Positive { index = 4; held = false };
      Conformance.Journal.Negative
        { name = "A cannot realize B at exact [spaces are fine]";
          verdict = Conformance.Trial.Skipped "budget: too deep" };
    ]
  in
  let w, prior = Engine.Journal.open_ Conformance.Journal.codec ~path ~fingerprint:fp ~resume:false ~flush_every:1 in
  Alcotest.(check int) "fresh journal is empty" 0 (List.length prior);
  List.iter (Engine.Journal.record w) entries;
  Engine.Journal.close w;
  (* Simulate a crash mid-append: a partial trailing line. *)
  Out_channel.with_open_gen
    [ Open_wronly; Open_append; Open_binary ]
    0o644 path
    (fun oc -> Out_channel.output_string oc "P\t9");
  let w, prior = Engine.Journal.open_ Conformance.Journal.codec ~path ~fingerprint:fp ~resume:true ~flush_every:1 in
  Alcotest.(check int) "partial line dropped, rest kept" 3 (List.length prior);
  Alcotest.(check bool) "entries round-trip" true (prior = entries);
  Engine.Journal.record w (Conformance.Journal.Positive { index = 9; held = true });
  Engine.Journal.close w;
  let w, prior =
    Engine.Journal.open_ Conformance.Journal.codec ~path ~fingerprint:fp ~resume:true ~flush_every:1
  in
  Engine.Journal.close w;
  Alcotest.(check int) "append after compaction" 4 (List.length prior);
  (* A journal written under a different configuration is ignored. *)
  let other = Conformance.Journal.fingerprint ~seeds:99 () in
  let w, prior =
    Engine.Journal.open_ Conformance.Journal.codec ~path ~fingerprint:other ~resume:true ~flush_every:1
  in
  Engine.Journal.close w;
  Alcotest.(check int) "mismatched fingerprint discards" 0 (List.length prior);
  Sys.remove path

(* A writer killed before its rename leaves [PATH.tmp.<pid>.<domain>.<seq>]
   behind; other pids' temps go, this process's may be a write in flight. *)
let test_stale_temps_removed () =
  let path = tmp "stale.journal" in
  let stale = path ^ ".tmp.999999999.0.3" in
  let mine = Printf.sprintf "%s.tmp.%d.0.99" path (Unix.getpid ()) in
  let other_target = path ^ "2.tmp.999999999.0.3" in
  List.iter (fun f -> write_raw f "partial") [ stale; mine; other_target ];
  Snapshot.remove_stale_temps path;
  Alcotest.(check bool) "another pid's temp removed" false (Sys.file_exists stale);
  Alcotest.(check bool) "own temp kept" true (Sys.file_exists mine);
  Alcotest.(check bool) "another target's temp kept" true (Sys.file_exists other_target);
  write_raw stale "partial";
  let w, _ =
    Engine.Journal.open_ Conformance.Journal.codec ~path ~fingerprint:"fp" ~resume:true
      ~flush_every:1
  in
  Engine.Journal.close w;
  Alcotest.(check bool) "resuming a journal removes it" false (Sys.file_exists stale);
  List.iter Sys.remove [ path; mine; other_target ]

(* ------------------------------------------------------------------ *)
(* Kill-and-resume across all 24 models: interrupt an exploration by
   raising from [successors] after [k] expansions, resume from the last
   checkpoint on disk, and require the resumed graph to be identical to an
   uninterrupted run's. *)

exception Killed

let test_kill_and_resume_all_models () =
  let inst = Gadgets.disagree in
  let config = Explore.default_config in
  List.iter
    (fun m ->
      let name = Model.to_string m in
      let path = tmp ("kill-" ^ name ^ ".snap") in
      if Sys.file_exists path then Sys.remove path;
      let successors = Enumerate.groups inst m in
      let collapse = Explore.collapses m in
      let uninterrupted = Explore.explore ~config ~domains:1 inst m in
      (* Phase 1: run with checkpointing and kill after 5 expansions. *)
      let calls = ref 0 in
      let killing st =
        incr calls;
        if !calls > 5 then raise Killed else successors st
      in
      (match
         Explore.explore_with ~config
           ~checkpoint:{ Explore.path; every = 2 }
           inst ~successors:killing ~collapse
       with
      | (_ : Explore.compact) -> () (* fewer than 5 expansions: ran to completion *)
      | exception Killed -> ());
      (* Phase 2: resume from the checkpoint if one was written. *)
      let resume =
        if not (Sys.file_exists path) then None
        else
          match Snapshot.load ~path inst with
          | Ok s -> Some s
          | Error e ->
            Alcotest.failf "%s: checkpoint load failed: %s" name
              (Snapshot.error_to_string e)
      in
      let resumed = Explore.explore_with ~config ?resume inst ~successors ~collapse in
      check_same_graph inst name uninterrupted (Explore.view resumed);
      if Sys.file_exists path then Sys.remove path)
    Model.all

let test_resume_config_mismatch_rejected () =
  let inst = Gadgets.disagree in
  let config = Explore.default_config in
  let g = Explore.explore ~config ~domains:1 inst (model "REA") in
  let snap = snapshot_of_graph config g in
  match
    Explore.explore
      ~config:{ config with Explore.channel_bound = config.Explore.channel_bound + 1 }
      ~resume:snap inst (model "REA")
  with
  | (_ : Explore.graph) -> Alcotest.fail "config mismatch accepted"
  | exception Invalid_argument _ -> ()

(* [raw] (a framed snapshot) with one more key among its counters: what a
   v2 file written while the explorer had a symmetry quotient holds. *)
let with_legacy_counter raw =
  let nl = String.index raw '\n' in
  match Metrics.Json.parse (String.sub raw (nl + 1) (String.length raw - nl - 1)) with
  | Ok (Metrics.Json.Obj fields) ->
    let add = function
      | "counters", Metrics.Json.Obj cs ->
        ("counters", Metrics.Json.Obj (cs @ [ ("canonicalized", Metrics.Json.Num 0.) ]))
      | kv -> kv
    in
    Snapshot.framed ~magic:Snapshot.magic
      (Metrics.Json.to_string (Metrics.Json.Obj (List.map add fields)))
  | Ok _ -> Alcotest.fail "payload is not an object"
  | Error e -> Alcotest.failf "payload does not parse: %s" e

(* Restored counters: a resumed run's metrics and graph must equal an
   uninterrupted run's (the snapshot carries the exploration's own
   totals), also from a file that carries a counter the reader no longer
   knows. *)
let test_resume_counters_identical () =
  let inst = Gadgets.disagree in
  let config = Explore.default_config in
  let m = model "UMS" in
  let successors = Enumerate.groups inst m in
  let collapse = Explore.collapses m in
  let path = tmp "counters.snap" in
  if Sys.file_exists path then Sys.remove path;
  let metrics_full = Metrics.create () in
  let full =
    Explore.explore_with ~config ~domains:1 ~metrics:metrics_full inst ~successors
      ~collapse
  in
  let calls = ref 0 in
  let killing st =
    incr calls;
    if !calls > 7 then raise Killed else successors st
  in
  (match
     Explore.explore_with ~config
       ~checkpoint:{ Explore.path; every = 2 }
       inst ~successors:killing ~collapse
   with
  | (_ : Explore.compact) -> ()
  | exception Killed -> ());
  Alcotest.(check bool) "a checkpoint was written" true (Sys.file_exists path);
  let written = In_channel.with_open_bin path In_channel.input_all in
  List.iter
    (fun (what, raw) ->
      write_raw path raw;
      let resume =
        match Snapshot.load ~path inst with
        | Ok s -> Some s
        | Error e -> Alcotest.failf "%s: load failed: %s" what (Snapshot.error_to_string e)
      in
      let metrics_resumed = Metrics.create () in
      let resumed =
        Explore.explore_with ~config ~metrics:metrics_resumed ?resume inst ~successors
          ~collapse
      in
      check_same_graph inst what (Explore.view full) (Explore.view resumed);
      Alcotest.(check int) (what ^ ": edges counter") (Metrics.edges metrics_full)
        (Metrics.edges metrics_resumed);
      Alcotest.(check int) (what ^ ": peak frontier") (Metrics.peak_frontier metrics_full)
        (Metrics.peak_frontier metrics_resumed);
      Alcotest.(check (float 1e-9))
        (what ^ ": dedup rate")
        (Metrics.dedup_rate metrics_full)
        (Metrics.dedup_rate metrics_resumed))
    [ ("as written", written); ("legacy counter", with_legacy_counter written) ];
  Sys.remove path

let () =
  Alcotest.run "snapshot"
    [
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "wrong instance rejected" `Quick test_snapshot_wrong_instance;
          Alcotest.test_case "all strict prefixes fail" `Quick test_snapshot_prefixes_fail;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "all strict prefixes fail" `Quick test_corpus_prefixes_fail;
          Alcotest.test_case "emit makes missing directories" `Quick
            test_corpus_emit_makes_dirs;
        ] );
      ( "journal",
        [
          Alcotest.test_case "resume, partial line, fingerprint" `Quick
            test_journal_resume_and_partial_line;
          Alcotest.test_case "stale temp files removed" `Quick test_stale_temps_removed;
        ] );
      ( "resume",
        [
          Alcotest.test_case "kill-and-resume matches (all 24 models)" `Quick
            test_kill_and_resume_all_models;
          Alcotest.test_case "config mismatch rejected" `Quick
            test_resume_config_mismatch_rejected;
          Alcotest.test_case "restored counters identical" `Quick
            test_resume_counters_identical;
        ] );
    ]

(* Divergence-hunter tests: QCheck agreement of Spp.Dispute with a naive
   brute-force wheel detector (and with the solver: no wheel => a stable
   assignment exists), shrink soundness of the hunt minimizer, corpus
   round-trips, Spp.Mutate surgery laws, algebraic-precondition checks,
   and crash tolerance of the generic journal. *)

module Dispute = Spp.Dispute
module Instance = Spp.Instance
module Path = Spp.Path
module Mutate = Spp.Mutate
module Algebra = Spp.Algebra
module Json = Engine.Metrics.Json

let model s = Option.get (Engine.Model.of_string s)

(* ------------------------------------------------------------------ *)
(* Naive reference wheel detector: build the dispute-digraph edge
   relation by brute force over vertex pairs (rather than Dispute.find's
   successor enumeration along witness paths), then decide cycle
   existence with Floyd–Warshall transitive closure (rather than DFS). *)

let naive_has_wheel inst =
  let dest = Instance.dest inst in
  let vertices =
    List.concat_map
      (fun v ->
        if v = dest then []
        else List.map (fun p -> (v, p)) (Instance.permitted inst v))
      (Instance.nodes inst)
    |> Array.of_list
  in
  let n = Array.length vertices in
  let rank v p = Option.get (Instance.rank inst v p) in
  (* Edge (u,q) -> (w,q'): some permitted path of u ranked no worse than q
     passes through w (w interior, not the destination) and continues
     exactly along q'. *)
  let edge (u, q) (w, q') =
    u <> w && w <> dest
    && List.exists
         (fun p ->
           rank u p <= rank u q
           && (match Path.to_nodes p with
              | [] -> false
              | src :: rest -> src = u && List.mem w rest)
           &&
           match Path.suffix_from w p with
           | Some suffix -> Path.equal suffix q'
           | None -> false)
         (Instance.permitted inst u)
  in
  let reach = Array.init n (fun i -> Array.init n (fun j -> edge vertices.(i) vertices.(j))) in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
      done
    done
  done;
  let cyclic = ref false in
  for i = 0 to n - 1 do
    if reach.(i).(i) then cyclic := true
  done;
  !cyclic

let gen_config seed =
  {
    Spp.Generator.nodes = 4 + (seed mod 3);
    extra_edges = seed mod 3;
    max_paths_per_node = 3;
    max_path_len = 4;
    seed;
  }

let test_dispute_agreement =
  QCheck.Test.make ~count:150 ~name:"Dispute.has_wheel agrees with naive closure"
    QCheck.(map gen_config small_int)
    (fun cfg ->
      let inst = Spp.Generator.instance cfg in
      Dispute.has_wheel inst = naive_has_wheel inst)

let test_dispute_agreement_safe =
  QCheck.Test.make ~count:100
    ~name:"safe instances: both detectors report no wheel"
    QCheck.(map gen_config small_int)
    (fun cfg ->
      let inst = Spp.Generator.safe_instance cfg in
      (not (Dispute.has_wheel inst)) && not (naive_has_wheel inst))

let test_no_wheel_solvable =
  QCheck.Test.make ~count:150 ~name:"no dispute wheel => stable assignment exists"
    QCheck.(map gen_config small_int)
    (fun cfg ->
      let inst = Spp.Generator.instance cfg in
      QCheck.assume (not (Dispute.has_wheel inst));
      Spp.Solver.solve inst <> None)

let test_found_wheels_check =
  QCheck.Test.make ~count:150 ~name:"Dispute.find results satisfy check_wheel"
    QCheck.(map gen_config small_int)
    (fun cfg ->
      let inst = Spp.Generator.instance cfg in
      match Dispute.find inst with
      | None -> true
      | Some w -> Dispute.check_wheel inst w)

(* ------------------------------------------------------------------ *)
(* Mutate surgery laws. *)

let disagree = Spp.Gadgets.disagree

let test_swap_ranks_involutive () =
  let v =
    List.find
      (fun v -> List.length (Instance.permitted disagree v) >= 2)
      (Instance.nodes disagree)
  in
  let once = Option.get (Mutate.swap_ranks disagree v 0 1) in
  let twice = Option.get (Mutate.swap_ranks once v 0 1) in
  List.iter
    (fun u ->
      Alcotest.(check (list int))
        (Printf.sprintf "ranks restored at %d" u)
        (List.filter_map (Instance.rank disagree u) (Instance.permitted disagree u))
        (List.filter_map (Instance.rank twice u) (Instance.permitted twice u));
      Alcotest.(check bool)
        "permitted restored" true
        (List.for_all2 Path.equal
           (Instance.permitted disagree u)
           (Instance.permitted twice u)))
    (Instance.nodes disagree)

let test_drop_path () =
  let v =
    List.find
      (fun v -> List.length (Instance.permitted disagree v) >= 2)
      (Instance.nodes disagree)
  in
  let p = List.hd (Instance.permitted disagree v) in
  let inst' = Option.get (Mutate.drop_path disagree v p) in
  Alcotest.(check bool) "path gone" false (Instance.is_permitted inst' v p);
  Alcotest.(check int) "still valid" 0 (List.length (Instance.validate inst'))

let test_add_path_most_preferred () =
  (* disagree permits every simple path already, so make room first:
     drop a node's most-preferred path, then add it back on top. *)
  let v =
    List.find
      (fun v -> List.length (Instance.permitted disagree v) >= 2)
      (Instance.nodes disagree)
  in
  let p = List.hd (Instance.permitted disagree v) in
  let base = Option.get (Mutate.drop_path disagree v p) in
  let inst' = Option.get (Mutate.add_path base v p ~pos:0) in
  Alcotest.(check (option int)) "inserted at rank 0" (Some 0) (Instance.rank inst' v p);
  Alcotest.(check int) "still valid" 0 (List.length (Instance.validate inst'));
  Alcotest.(check int) "one more permitted path"
    (List.length (Instance.permitted base v) + 1)
    (List.length (Instance.permitted inst' v))

let test_drop_edge_removes_crossing_paths () =
  let e = List.hd (Instance.edges disagree) in
  let inst' = Option.get (Mutate.drop_edge disagree e) in
  Alcotest.(check bool) "edge gone" false (List.mem e (Instance.edges inst'));
  List.iter
    (fun v ->
      List.iter
        (fun p ->
          Alcotest.(check bool) "no crossing path survives" false
            (Mutate.path_uses_edge e p))
        (Instance.permitted inst' v))
    (Instance.nodes inst');
  Alcotest.(check int) "still valid" 0 (List.length (Instance.validate inst'))

let test_isolate_noop_is_none () =
  (* Isolating a node twice: the second application must report the
     mutation inapplicable, not return the instance unchanged (a no-op
     Some would let a greedy shrinker loop forever). *)
  let v =
    List.find (fun v -> v <> Instance.dest disagree) (Instance.nodes disagree)
  in
  let once = Option.get (Mutate.isolate disagree v) in
  Alcotest.(check bool) "second isolate is inapplicable" true
    (Mutate.isolate once v = None)

let test_simple_paths () =
  let v =
    List.find (fun v -> v <> Instance.dest disagree) (Instance.nodes disagree)
  in
  let paths = Mutate.simple_paths disagree v in
  Alcotest.(check bool) "non-empty" true (paths <> []);
  List.iter
    (fun p ->
      Alcotest.(check bool) "simple" true (Path.is_simple p);
      Alcotest.(check (option int)) "starts at v" (Some v) (Path.source p);
      Alcotest.(check (option int))
        "ends at dest"
        (Some (Instance.dest disagree))
        (Path.destination p))
    paths

(* ------------------------------------------------------------------ *)
(* Algebraic preconditions (the hunt's static certificate). *)

let ring g = g ~spokes:3

let test_conditions_shortest () =
  let g = ring (fun ~spokes -> Hunt.Perturb.ring_graph ~spokes ~label:(fun u v -> 1 + ((u + v) mod 3))) in
  let c = Algebra.check_conditions Algebra.shortest_paths g in
  Alcotest.(check bool) "monotone" true c.Algebra.monotone;
  Alcotest.(check bool) "strictly monotone" true c.Algebra.strictly_monotone;
  Alcotest.(check bool) "steps were checked" true (c.Algebra.steps_checked > 0)

let test_conditions_widest () =
  let g = ring (fun ~spokes -> Hunt.Perturb.ring_graph ~spokes ~label:(fun u v -> 1 + ((u + (2 * v)) mod 4))) in
  let c = Algebra.check_conditions Algebra.widest_paths g in
  (* Bottleneck capacity never grows along an extension, but it can stay
     equal, so widest-paths is monotone without being strictly so. *)
  Alcotest.(check bool) "monotone" true c.Algebra.monotone;
  Alcotest.(check bool) "not strictly monotone" false c.Algebra.strictly_monotone

let test_conditions_longest () =
  let g = ring (fun ~spokes -> Hunt.Perturb.ring_graph ~spokes ~label:(fun _ _ -> 1)) in
  let c = Algebra.check_conditions Hunt.Perturb.longest_paths g in
  Alcotest.(check bool) "not monotone" false c.Algebra.monotone;
  Alcotest.(check bool) "not strictly monotone" false c.Algebra.strictly_monotone

let test_strict_monotone_implies_no_wheel =
  (* The certificate the prefilter relies on, checked empirically on the
     perturbation stream's algebraic candidates. *)
  QCheck.Test.make ~count:30 ~name:"strictly monotone algebra => no dispute wheel"
    QCheck.(int_range 0 9)
    (fun seed ->
      List.for_all
        (fun (c : Hunt.Perturb.t) ->
          match c.Hunt.Perturb.source with
          | Hunt.Perturb.Surgery _ -> true
          | Hunt.Perturb.Algebraic (Hunt.Perturb.Alg (alg, g)) ->
            let conds = Algebra.check_conditions alg g in
            (not conds.Algebra.strictly_monotone)
            || not (Dispute.has_wheel (Hunt.Perturb.instance c)))
        (Hunt.Perturb.generate ~seeds:(seed + 1)))

(* ------------------------------------------------------------------ *)
(* Shrink soundness: every accepted shrink step still validates and still
   exhibits the recorded divergence/separation at the recorded budget. *)

let smoke_config = Hunt.Search.explore_config Engine.Journal.Smoke
let smoke_models = Hunt.Search.models Engine.Journal.Smoke

let findings_with_traces () =
  List.filter_map
    (fun (c : Hunt.Perturb.t) ->
      match Hunt.Precheck.run c with
      | Hunt.Precheck.Skip _ -> None
      | Hunt.Precheck.Explore { inst; _ } ->
        let verdicts =
          List.map
            (fun m ->
              (m, Modelcheck.Oscillation.analyze ~config:smoke_config ~domains:1 inst m))
            smoke_models
        in
        Option.map
          (fun kind ->
            let keep = Hunt.Search.keep_of_kind ~config:smoke_config kind in
            let minimal, steps = Hunt.Minimize.minimize_trace ~keep inst in
            (c, kind, keep, minimal, steps))
          (Hunt.Search.classify verdicts))
    (Hunt.Perturb.generate ~seeds:1)

let test_shrink_soundness () =
  let found = findings_with_traces () in
  Alcotest.(check bool) "seed 0 yields at least one finding" true (found <> []);
  Alcotest.(check bool) "at least one finding required shrinking" true
    (List.exists (fun (_, _, _, _, steps) -> steps <> []) found);
  List.iter
    (fun ((c : Hunt.Perturb.t), _kind, keep, minimal, steps) ->
      Alcotest.(check bool)
        (c.Hunt.Perturb.name ^ ": minimal instance still exhibits the finding")
        true (keep minimal);
      List.iter
        (fun (s : Hunt.Minimize.step) ->
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: step validates" c.Hunt.Perturb.name s.Hunt.Minimize.descr)
            0
            (List.length (Instance.validate s.Hunt.Minimize.inst));
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: step still exhibits the finding"
               c.Hunt.Perturb.name s.Hunt.Minimize.descr)
            true
            (keep s.Hunt.Minimize.inst))
        steps;
      match steps with
      | [] -> ()
      | _ ->
        let last = List.nth steps (List.length steps - 1) in
        Alcotest.(check bool)
          (c.Hunt.Perturb.name ^ ": final instance is the last accepted step")
          true
          (Instance.size minimal = Instance.size last.Hunt.Minimize.inst))
    found

(* ------------------------------------------------------------------ *)
(* Corpus round-trips. *)

let sample_finding () =
  match findings_with_traces () with
  | [] -> Alcotest.fail "no finding from seed 0"
  | (c, kind, _, minimal, _) :: _ ->
    {
      Hunt.Corpus.name = c.Hunt.Perturb.name;
      seed = c.Hunt.Perturb.seed;
      descr = c.Hunt.Perturb.descr;
      inst = minimal;
      kind;
      channel_bound = smoke_config.Modelcheck.Explore.channel_bound;
      max_states = smoke_config.Modelcheck.Explore.max_states;
    }

let test_corpus_roundtrip () =
  let f = sample_finding () in
  let s = Json.to_string (Hunt.Corpus.to_json f) in
  match Json.parse s with
  | Error e -> Alcotest.failf "serialized finding does not parse: %s" e
  | Ok j -> (
    match Hunt.Corpus.of_json j with
    | Error e -> Alcotest.failf "parsed finding does not decode: %s" e
    | Ok f' ->
      Alcotest.(check string)
        "re-serialization is identical" s
        (Json.to_string (Hunt.Corpus.to_json f'));
      let o = Hunt.Corpus.replay f' in
      Alcotest.(check bool) (Fmt.str "replay ok (%s)" o.Hunt.Corpus.detail) true o.Hunt.Corpus.ok)

let test_corpus_rejects_wrong_schema () =
  let f = sample_finding () in
  let j =
    match Hunt.Corpus.to_json f with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) -> if k = "schema" then (k, Json.Str "bogus/v9") else (k, v))
           fields)
    | _ -> Alcotest.fail "finding did not serialize to an object"
  in
  match Hunt.Corpus.of_json j with
  | Ok _ -> Alcotest.fail "wrong schema accepted"
  | Error e ->
    let contains ~sub s =
      let n = String.length sub and m = String.length s in
      let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool) "error mentions the schema" true (contains ~sub:"schema" e)

(* ------------------------------------------------------------------ *)
(* Generic journal crash tolerance. *)

let tmp_journal name = Filename.concat (Filename.get_temp_dir_name ()) name
let raw = { Engine.Journal.magic = "m/v1"; encode = Fun.id; decode = Option.some }

let test_generic_journal_roundtrip () =
  let path = tmp_journal "hunt_test_journal_rt" in
  if Sys.file_exists path then Sys.remove path;
  let w, prior =
    Engine.Journal.open_ raw ~path ~fingerprint:"fp"
      ~resume:false ~flush_every:1
  in
  Alcotest.(check int) "fresh journal is empty" 0 (List.length prior);
  Engine.Journal.record w [ "a"; "tab\there"; "newline\nthere" ];
  Engine.Journal.record w [ "b" ];
  Engine.Journal.close w;
  let _, entries =
    Engine.Journal.open_ raw ~path ~fingerprint:"fp"
      ~resume:true ~flush_every:1
  in
  Alcotest.(check (list (list string)))
    "escaped fields round-trip"
    [ [ "a"; "tab\there"; "newline\nthere" ]; [ "b" ] ]
    entries;
  Sys.remove path

let test_generic_journal_torn_line () =
  let path = tmp_journal "hunt_test_journal_torn" in
  if Sys.file_exists path then Sys.remove path;
  let w, _ =
    Engine.Journal.open_ raw ~path ~fingerprint:"fp"
      ~resume:false ~flush_every:1
  in
  Engine.Journal.record w [ "complete" ];
  Engine.Journal.close w;
  (* Simulate a crash mid-append: a trailing line without its newline. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "torn\tretc";
  close_out oc;
  let w, entries =
    Engine.Journal.open_ raw ~path ~fingerprint:"fp"
      ~resume:true ~flush_every:1
  in
  Alcotest.(check (list (list string)))
    "torn trailing line dropped"
    [ [ "complete" ] ]
    entries;
  Engine.Journal.close w;
  Sys.remove path

let test_generic_journal_fingerprint_mismatch () =
  let path = tmp_journal "hunt_test_journal_fp" in
  if Sys.file_exists path then Sys.remove path;
  let w, _ =
    Engine.Journal.open_ raw ~path ~fingerprint:"fp-a"
      ~resume:false ~flush_every:1
  in
  Engine.Journal.record w [ "stale" ];
  Engine.Journal.close w;
  let w, entries =
    Engine.Journal.open_ raw ~path ~fingerprint:"fp-b"
      ~resume:true ~flush_every:1
  in
  Alcotest.(check int) "mismatched journal discarded" 0 (List.length entries);
  Engine.Journal.close w;
  Sys.remove path

let test_hunt_journal_roundtrip () =
  let path = tmp_journal "hunt_test_journal_hunt" in
  if Sys.file_exists path then Sys.remove path;
  let fp =
    Hunt.Journal.fingerprint ~seeds:1 ~budget:"smoke" ~models:smoke_models
      ~channel_bound:3 ~max_states:4000 ()
  in
  let f = sample_finding () in
  let entries =
    [
      Hunt.Journal.Skipped { name = "a"; reason = "no-dispute-wheel" };
      Hunt.Journal.Explored
        {
          name = "b";
          verdicts = [ (model "R1O", "oscillates"); (model "REO", "converges") ];
          finding = None;
        };
      Hunt.Journal.Explored
        { name = f.Hunt.Corpus.name; verdicts = [ (model "R1O", "oscillates") ]; finding = Some f };
    ]
  in
  let w, prior = Engine.Journal.open_ Hunt.Journal.codec ~path ~fingerprint:fp ~resume:false ~flush_every:1 in
  Alcotest.(check int) "fresh" 0 (List.length prior);
  List.iter (Engine.Journal.record w) entries;
  Engine.Journal.close w;
  let w, loaded = Engine.Journal.open_ Hunt.Journal.codec ~path ~fingerprint:fp ~resume:true ~flush_every:1 in
  Engine.Journal.close w;
  Alcotest.(check (list string))
    "entry keys round-trip"
    (List.map Hunt.Journal.entry_name entries)
    (List.map Hunt.Journal.entry_name loaded);
  (match List.nth loaded 2 with
  | Hunt.Journal.Explored { finding = Some f'; _ } ->
    Alcotest.(check string) "journaled finding round-trips"
      (Json.to_string (Hunt.Corpus.to_json f))
      (Json.to_string (Hunt.Corpus.to_json f'))
  | _ -> Alcotest.fail "finding entry lost");
  Sys.remove path

(* The decode rule every journal shares: record 2 of 3 parses as a line
   but does not decode, so a resume keeps record 1 only and compacts the
   file to it. *)
let resumes_first_only name codec ~fingerprint entries ~bad =
  let path = tmp_journal ("hunt_test_journal_undecodable_" ^ name) in
  let w, _ = Engine.Journal.open_ codec ~path ~fingerprint ~resume:false ~flush_every:1 in
  List.iter (Engine.Journal.record w) entries;
  Engine.Journal.close w;
  let read () = In_channel.with_open_bin path In_channel.input_all in
  (match String.split_on_char '\n' (read ()) with
  | [ header; r1; _; r3; "" ] ->
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (String.concat "\n" [ header; r1; bad; r3; "" ]))
  | _ -> Alcotest.failf "%s: expected a header and three records" name);
  let w, prior = Engine.Journal.open_ codec ~path ~fingerprint ~resume:true ~flush_every:1 in
  Engine.Journal.close w;
  Alcotest.(check (list (list string)))
    (name ^ ": record 1 only")
    [ codec.Engine.Journal.encode (List.hd entries) ]
    (List.map codec.Engine.Journal.encode prior);
  Alcotest.(check int)
    (name ^ ": compacted to the header and record 1")
    2
    (List.length (String.split_on_char '\n' (read ())) - 1);
  Sys.remove path

let test_journal_stops_at_undecodable () =
  resumes_first_only "conformance" Conformance.Journal.codec
    ~fingerprint:(Conformance.Journal.fingerprint ~seeds:1 ())
    Conformance.Journal.
      [
        Positive { index = 0; held = true };
        Positive { index = 1; held = false };
        Positive { index = 2; held = true };
      ]
    ~bad:"P\tnot-an-index\tH";
  resumes_first_only "hunt" Hunt.Journal.codec ~fingerprint:"fp"
    Hunt.Journal.
      [
        Skipped { name = "a"; reason = "no-dispute-wheel" };
        Skipped { name = "b"; reason = "no-dispute-wheel" };
        Explored { name = "c"; verdicts = [ (model "R1O", "converges") ]; finding = None };
      ]
    ~bad:"E\tb\tNOSUCHMODEL=converges"

(* ------------------------------------------------------------------ *)

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "hunt"
    [
      ( "dispute",
        qsuite
          [
            test_dispute_agreement;
            test_dispute_agreement_safe;
            test_no_wheel_solvable;
            test_found_wheels_check;
          ] );
      ( "mutate",
        [
          Alcotest.test_case "swap_ranks is involutive" `Quick test_swap_ranks_involutive;
          Alcotest.test_case "drop_path" `Quick test_drop_path;
          Alcotest.test_case "add_path at rank 0" `Quick test_add_path_most_preferred;
          Alcotest.test_case "drop_edge removes crossing paths" `Quick
            test_drop_edge_removes_crossing_paths;
          Alcotest.test_case "isolate no-op is None" `Quick test_isolate_noop_is_none;
          Alcotest.test_case "simple_paths" `Quick test_simple_paths;
        ] );
      ( "conditions",
        Alcotest.test_case "shortest-paths strictly monotone" `Quick test_conditions_shortest
        :: Alcotest.test_case "widest-paths monotone, not strictly" `Quick
             test_conditions_widest
        :: Alcotest.test_case "longest-paths anti-monotone" `Quick test_conditions_longest
        :: qsuite [ test_strict_monotone_implies_no_wheel ] );
      ( "shrink",
        [ Alcotest.test_case "shrink soundness" `Quick test_shrink_soundness ] );
      ( "corpus",
        [
          Alcotest.test_case "round-trip and replay" `Quick test_corpus_roundtrip;
          Alcotest.test_case "wrong schema rejected" `Quick test_corpus_rejects_wrong_schema;
        ] );
      ( "journal",
        [
          Alcotest.test_case "generic round-trip" `Quick test_generic_journal_roundtrip;
          Alcotest.test_case "torn trailing line" `Quick test_generic_journal_torn_line;
          Alcotest.test_case "fingerprint mismatch" `Quick
            test_generic_journal_fingerprint_mismatch;
          Alcotest.test_case "hunt journal round-trip" `Quick test_hunt_journal_roundtrip;
          Alcotest.test_case "undecodable record ends the prefix" `Quick
            test_journal_stops_at_undecodable;
        ] );
    ]

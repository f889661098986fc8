(* Conformance-harness tests: corpus round-trips and replay, counterexample
   shrinking, Spp.Generator determinism goldens, and QCheck agreement of
   Realization.Seqcheck with naive reference implementations. *)

open Engine
module Trial = Conformance.Trial
module Corpus = Conformance.Corpus
module Shrink = Conformance.Shrink
module Fuzz = Conformance.Fuzz
module Json = Engine.Metrics.Json

let model s = Option.get (Model.of_string s)

let pp_verdict ppf = function
  | Trial.Holds -> Fmt.string ppf "holds"
  | Trial.Violated v -> Fmt.pf ppf "violated (%a)" Trial.pp_violation v

(* ------------------------------------------------------------------ *)
(* Corpus round-trips. *)

let sample_trial () =
  Trial.force_routes ();
  let f =
    List.find
      (fun (f : Realization.Facts.positive) ->
        Model.equal f.Realization.Facts.realizer (model "RMO")
        && Model.equal f.Realization.Facts.realized (model "R1O"))
      Realization.Facts.positives
  in
  let inst = Spp.Gadgets.disagree in
  Trial.of_fact f ~inst_name:"DISAGREE" inst
    (Fuzz.schedule inst f.Realization.Facts.realized ~seed:11 ~len:10)

let roundtrip entry =
  let s = Json.to_string (Corpus.to_json entry) in
  match Json.parse s with
  | Error e -> Alcotest.failf "serialized corpus entry does not parse: %s" e
  | Ok j -> (
    match Corpus.of_json j with
    | Error e -> Alcotest.failf "parsed corpus entry does not decode: %s" e
    | Ok entry' ->
      Alcotest.(check string)
        "re-serialization is identical" s
        (Json.to_string (Corpus.to_json entry'));
      entry')

let test_roundtrip_positive () =
  let t = sample_trial () in
  let entry = Corpus.positive ~name:"rt-pos" ~expect:Corpus.Expect_holds t in
  let entry' = roundtrip entry in
  let o = Corpus.replay entry' in
  Alcotest.(check bool) (Fmt.str "replay ok (%s)" o.Corpus.detail) true o.Corpus.ok

let test_roundtrip_negative () =
  let neg =
    List.find
      (fun (n : Trial.negative) ->
        match n.Trial.check with
        | Trial.Refutation r -> r.termination = Modelcheck.Refute.Prefix
        | Trial.Separation _ -> false)
      (Trial.negatives ())
  in
  let f = neg.Trial.fact in
  let cfg = Modelcheck.Explore.default_config in
  let entry =
    match neg.Trial.check with
    | Trial.Separation _ -> assert false
    | Trial.Refutation r ->
      {
        Corpus.name = "rt-neg";
        case =
          Corpus.Negative_refutation
            {
              inst_name = r.inst_name;
              inst = r.inst;
              non_realizer = f.Realization.Facts.non_realizer;
              target_model = f.Realization.Facts.target;
              level = r.level;
              termination = r.termination;
              witness = r.witness;
              channel_bound = cfg.Modelcheck.Explore.channel_bound;
              max_states = cfg.Modelcheck.Explore.max_states;
            };
      }
  in
  let entry' = roundtrip entry in
  let o = Corpus.replay entry' in
  Alcotest.(check bool) (Fmt.str "replay ok (%s)" o.Corpus.detail) true o.Corpus.ok

let test_replay_detects_wrong_expectation () =
  let t = sample_trial () in
  let entry =
    Corpus.positive ~name:"rt-wrong"
      ~expect:(Corpus.Expect_violated Trial.Relation_violated) t
  in
  let o = Corpus.replay entry in
  Alcotest.(check bool) "replay fails on a stale expectation" false o.Corpus.ok

(* ------------------------------------------------------------------ *)
(* Shrinking. *)

let test_shrink_minimizes () =
  let t = sample_trial () in
  (match Trial.check_positive t with
  | Trial.Holds -> ()
  | v -> Alcotest.failf "base trial should hold, got %a" pp_verdict v);
  (* Inject an entry that is illegal in the realized model (R1O is an
     M_one model, so a two-message read violates the count dimension). *)
  let inst = t.Trial.inst in
  let x = Spp.Gadgets.node inst 'x' in
  let bad =
    Activation.single x
      [
        Activation.read ~count:(Activation.Finite 2)
          (Channel.id ~src:(Spp.Gadgets.node inst 'd') ~dst:x);
      ]
  in
  let t_bad = { t with Trial.entries = t.Trial.entries @ [ bad ] } in
  (match Trial.check_positive t_bad with
  | Trial.Violated (Trial.Source_entry_invalid _) -> ()
  | v -> Alcotest.failf "expected a source-entry violation, got %a" pp_verdict v);
  let shrunk = Shrink.positive t_bad in
  Alcotest.(check int) "schedule shrunk to the offending entry" 1
    (List.length shrunk.Trial.entries);
  match Trial.check_positive shrunk with
  | Trial.Violated (Trial.Source_entry_invalid 0) -> ()
  | v -> Alcotest.failf "shrunk trial lost the violation: %a" pp_verdict v

let test_shrink_noop_on_holding_trial () =
  let t = sample_trial () in
  let shrunk = Shrink.positive t in
  Alcotest.(check int) "holding trials are returned unchanged"
    (List.length t.Trial.entries)
    (List.length shrunk.Trial.entries)

(* ------------------------------------------------------------------ *)
(* Spp.Generator determinism goldens: the canonical rendering of a few
   seeded instances, digested.  A digest change means generated fuzzing
   corpora are no longer reproducible from their seeds — bump deliberately
   (the expected values are printed on failure). *)

let canonical inst = Fmt.str "%a" Spp.Instance.pp inst

let digest cfg = Digest.to_hex (Digest.string (canonical (Spp.Generator.instance cfg)))

let test_generator_repeatable () =
  let cfg = { Spp.Generator.default with Spp.Generator.seed = 13 } in
  Alcotest.(check string)
    "same seed, same instance"
    (canonical (Spp.Generator.instance cfg))
    (canonical (Spp.Generator.instance cfg))

let test_generator_digests () =
  List.iter
    (fun (cfg, expected) ->
      Alcotest.(check string)
        (Fmt.str "seed %d digest" cfg.Spp.Generator.seed)
        expected (digest cfg))
    [
      ( {
          Spp.Generator.nodes = 5;
          extra_edges = 1;
          max_paths_per_node = 3;
          max_path_len = 4;
          seed = 0;
        },
        "76054cfc9827922b1883885674427874" );
      ( {
          Spp.Generator.nodes = 6;
          extra_edges = 2;
          max_paths_per_node = 3;
          max_path_len = 5;
          seed = 1;
        },
        "4d7a0620c70419703cd4c26af5bbccd4" );
      ({ Spp.Generator.default with Spp.Generator.seed = 7 }, "c839553e5d9bd49365950a3499303020");
    ]

(* ------------------------------------------------------------------ *)
(* Seqcheck vs naive reference implementations. *)

let seq_inst = Spp.Gadgets.disagree

let alphabet =
  let x = Spp.Gadgets.node seq_inst 'x' and y = Spp.Gadgets.node seq_inst 'y' in
  [|
    Spp.Assignment.all_epsilon seq_inst;
    Spp.Assignment.of_list seq_inst [ (x, Spp.Gadgets.path seq_inst "xd") ];
    Spp.Assignment.of_list seq_inst
      [ (x, Spp.Gadgets.path seq_inst "xyd"); (y, Spp.Gadgets.path seq_inst "yd") ];
  |]

let assignments_of_ints = List.map (fun i -> alphabet.(abs i mod Array.length alphabet))

let rec naive_subsequence original realized =
  match (original, realized) with
  | [], _ -> true
  | _ :: _, [] -> false
  | o :: os, r :: rs ->
    if Spp.Assignment.equal o r then naive_subsequence os rs
    else naive_subsequence original rs

(* Blocks spelled out by backtracking: consume at least one copy of each
   original element, never leave realized elements over. *)
let rec naive_repetition original realized =
  match (original, realized) with
  | [], [] -> true
  | [], _ :: _ | _ :: _, [] -> false
  | o :: os, r :: rs -> Spp.Assignment.equal o r && naive_rep_after o os rs

and naive_rep_after o os rs =
  naive_repetition os rs
  ||
  match rs with
  | r :: rs' -> Spp.Assignment.equal r o && naive_rep_after o os rs'
  | [] -> false

let gen_word = QCheck2.Gen.(list_size (int_range 0 10) (int_range 0 2))

let seqcheck_properties =
  [
    QCheck2.Test.make ~name:"is_subsequence agrees with the naive reference"
      ~count:500
      QCheck2.Gen.(pair gen_word gen_word)
      (fun (o, r) ->
        let original = assignments_of_ints o
        and realized = assignments_of_ints r in
        Realization.Seqcheck.is_subsequence ~original ~realized
        = naive_subsequence original realized);
    QCheck2.Test.make ~name:"is_repetition agrees with the naive reference"
      ~count:500
      QCheck2.Gen.(pair gen_word gen_word)
      (fun (o, r) ->
        let original = assignments_of_ints o
        and realized = assignments_of_ints r in
        Realization.Seqcheck.is_repetition ~original ~realized
        = naive_repetition original realized);
    QCheck2.Test.make ~name:"constructed duplications satisfy is_repetition"
      ~count:200
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 6) (int_range 0 2))
          (list_size (int_range 1 6) (int_range 1 3)))
      (fun (word, dups) ->
        let original = assignments_of_ints word in
        let realized =
          List.concat
            (List.mapi
               (fun i a ->
                 let k = List.nth dups (i mod List.length dups) in
                 List.init k (fun _ -> a))
               original)
        in
        Realization.Seqcheck.is_repetition ~original ~realized);
  ]

let test_seqcheck_edge_cases () =
  let a = alphabet.(1) and b = alphabet.(2) in
  let check name expected ~original ~realized f =
    Alcotest.(check bool) name expected (f ~original ~realized)
  in
  let rep = Realization.Seqcheck.is_repetition in
  let sub = Realization.Seqcheck.is_subsequence in
  check "repetition: both empty" true ~original:[] ~realized:[] rep;
  check "repetition: empty block rejected" false ~original:[ a ] ~realized:[] rep;
  check "repetition: uncovered original suffix rejected" false
    ~original:[ a; b ] ~realized:[ a ] rep;
  check "repetition: trailing realized suffix rejected" false ~original:[ a ]
    ~realized:[ a; b ] rep;
  check "repetition: repeated original element needs both blocks" false
    ~original:[ a; a ] ~realized:[ a ] rep;
  check "subsequence: empty original always embeds" true ~original:[]
    ~realized:[ a; b ] sub;
  check "subsequence: nonempty original needs material" false ~original:[ a ]
    ~realized:[] sub

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "conformance"
    [
      ( "corpus",
        [
          Alcotest.test_case "positive entry round-trips" `Quick
            test_roundtrip_positive;
          Alcotest.test_case "negative entry round-trips" `Quick
            test_roundtrip_negative;
          Alcotest.test_case "replay detects stale expectations" `Quick
            test_replay_detects_wrong_expectation;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "minimizes an injected violation" `Quick
            test_shrink_minimizes;
          Alcotest.test_case "no-op on holding trials" `Quick
            test_shrink_noop_on_holding_trial;
        ] );
      ( "generator-determinism",
        [
          Alcotest.test_case "same seed, same instance" `Quick
            test_generator_repeatable;
          Alcotest.test_case "seeded digests are stable" `Quick
            test_generator_digests;
        ] );
      ( "seqcheck-reference",
        List.map QCheck_alcotest.to_alcotest seqcheck_properties
        @ [ Alcotest.test_case "edge cases" `Quick test_seqcheck_edge_cases ] );
    ]

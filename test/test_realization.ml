(* Tests for the realization theory: sequence-relation checkers, the
   constructive transforms of Sec. 3.2, the fact base, and the closure
   engine that regenerates Figures 3 and 4. *)

open Spp
open Engine
open Realization

let model s =
  match Model.of_string s with Some m -> m | None -> Alcotest.failf "bad model %s" s

(* ------------------------------------------------------------------ *)
(* Seqcheck *)

let assignments inst specs =
  List.map
    (fun spec ->
      Assignment.of_list inst
        (List.map (fun (c, p) -> (Gadgets.node inst c, Gadgets.path inst p)) spec))
    specs

let test_seqcheck_exact () =
  let inst = Gadgets.disagree in
  let a = assignments inst [ [ ('x', "xd") ]; [ ('x', "xyd") ] ] in
  let b = assignments inst [ [ ('x', "xd") ]; [ ('x', "xyd") ] ] in
  Alcotest.(check bool) "equal" true (Seqcheck.is_exact ~original:a ~realized:b);
  Alcotest.(check bool) "prefix not exact" false
    (Seqcheck.is_exact ~original:a ~realized:(List.tl b))

let test_seqcheck_repetition () =
  let inst = Gadgets.disagree in
  let s1 = assignments inst [ [ ('x', "xd") ] ] in
  let s2 = assignments inst [ [ ('x', "xyd") ] ] in
  let orig = s1 @ s2 in
  let realized = s1 @ s1 @ s1 @ s2 @ s2 in
  Alcotest.(check bool) "expansion ok" true
    (Seqcheck.is_repetition ~original:orig ~realized);
  Alcotest.(check bool) "reordering rejected" false
    (Seqcheck.is_repetition ~original:orig ~realized:(s2 @ s1));
  Alcotest.(check bool) "insertion rejected" false
    (Seqcheck.is_repetition ~original:orig ~realized:(s1 @ s2 @ s1));
  (* Ambiguous blocks: original has two equal consecutive elements. *)
  let orig2 = s1 @ s1 @ s2 in
  Alcotest.(check bool) "ambiguous blocks" true
    (Seqcheck.is_repetition ~original:orig2 ~realized:(s1 @ s1 @ s1 @ s2));
  Alcotest.(check bool) "missing tail rejected" false
    (Seqcheck.is_repetition ~original:orig ~realized:s1)

let test_seqcheck_subsequence () =
  let inst = Gadgets.disagree in
  let s1 = assignments inst [ [ ('x', "xd") ] ] in
  let s2 = assignments inst [ [ ('x', "xyd") ] ] in
  let s3 = assignments inst [ [ ('y', "yd") ] ] in
  Alcotest.(check bool) "subsequence ok" true
    (Seqcheck.is_subsequence ~original:(s1 @ s2) ~realized:(s1 @ s3 @ s2));
  Alcotest.(check bool) "order matters" false
    (Seqcheck.is_subsequence ~original:(s2 @ s1) ~realized:(s1 @ s3 @ s2));
  Alcotest.(check bool) "empty original" true
    (Seqcheck.is_subsequence ~original:[] ~realized:s1)

(* ------------------------------------------------------------------ *)
(* Closure vs. the paper's tables *)

let closure = lazy (Closure.derive_exn ())

let test_closure_no_contradiction () =
  let c = Lazy.force closure in
  List.iter
    (fun (_, _, cell) ->
      Alcotest.(check bool) "proven < disproven" true
        (cell.Closure.proven < cell.Closure.disproven))
    (Closure.cells c)

let test_closure_matches_paper () =
  let c = Lazy.force closure in
  let t = Paper_tables.tally c in
  Alcotest.(check int) "no contradictions" 0
    (List.assoc Paper_tables.Contradiction t);
  Alcotest.(check int) "never weaker than the paper" 0
    (List.assoc Paper_tables.Weaker t);
  Alcotest.(check int) "548 of 552 cells match exactly" 548
    (List.assoc Paper_tables.Match t)

let test_closure_known_refinements () =
  (* The four cells where transitivity sharpens the published table: the
     upper bounds on R1O/RMO realizing U1O/UMO drop to "subsequence",
     because realizing them with repetition would transport Prop. 3.11
     through U1O >=3 REA. *)
  let c = Lazy.force closure in
  let stronger =
    List.filter_map
      (fun (a, b, _, _, v) ->
        if v = Paper_tables.Stronger then Some (Model.to_string a, Model.to_string b)
        else None)
      (Paper_tables.diff c)
  in
  Alcotest.(check (list (pair string string)))
    "refined cells"
    [ ("U1O", "R1O"); ("U1O", "RMO"); ("UMO", "R1O"); ("UMO", "RMO") ]
    (List.sort compare stronger)

let test_closure_headline_facts () =
  let c = Lazy.force closure in
  let cell a b = Closure.cell c ~realized:(model a) ~realizer:(model b) in
  (* "UMS is able to exactly realize all models" (Sec. 3.5) *)
  List.iter
    (fun a ->
      if not (Model.equal a (model "UMS")) then
        Alcotest.(check int)
          ("UMS exactly realizes " ^ Model.to_string a)
          4
          (Closure.cell c ~realized:a ~realizer:(model "UMS")).Closure.proven)
    Model.all;
  (* "RMS realizes all reliable models exactly" *)
  List.iter
    (fun a ->
      if a.Model.rel = Model.Reliable && not (Model.equal a (model "RMS")) then
        Alcotest.(check int)
          ("RMS exactly realizes " ^ Model.to_string a)
          4
          (Closure.cell c ~realized:a ~realizer:(model "RMS")).Closure.proven)
    Model.all;
  (* "R1O, RMO, R1S, RMS, RES, R1F, RMF capture all oscillations" *)
  List.iter
    (fun b ->
      List.iter
        (fun a ->
          if not (Model.equal a (model b)) then
            Alcotest.(check bool)
              (b ^ " preserves oscillations of " ^ Model.to_string a)
              true
              ((Closure.cell c ~realized:a ~realizer:(model b)).Closure.proven >= 1))
        Model.all)
    [ "R1O"; "RMO"; "R1S"; "RMS"; "RES"; "R1F"; "RMF" ];
  (* "REO, REF, R1A, RMA, REA are provably unable to capture some
     oscillations" *)
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (b ^ " misses some oscillation")
        true
        (List.exists
           (fun a -> (Closure.cell c ~realized:a ~realizer:(model b)).Closure.disproven = 1)
           Model.all))
    [ "REO"; "REF"; "R1A"; "RMA"; "REA" ];
  ignore cell

let test_cell_rendering () =
  let s p d = Closure.cell_string { Closure.proven = p; disproven = d } in
  Alcotest.(check string) "exact" "4" (s 4 5);
  Alcotest.(check string) "rep only" "3" (s 3 4);
  Alcotest.(check string) "subseq only" "2" (s 2 3);
  Alcotest.(check string) "none" "-1" (s 0 1);
  Alcotest.(check string) "lower bound" ">=2" (s 2 5);
  Alcotest.(check string) "upper bound" "<=2" (s 0 3);
  Alcotest.(check string) "range" "2,3" (s 2 4);
  Alcotest.(check string) "unknown" "" (s 0 5)

(* ------------------------------------------------------------------ *)
(* Constructive transforms *)

let prefix_of_model inst m ~seed ~n =
  Scheduler.prefix n (Scheduler.random inst m ~seed)

let pi_seq inst entries =
  Trace.assignments ~include_initial:true (Executor.run_entries inst entries)

let check_transform_once inst ~source ~target ~seed ~n =
  match Transform.route ~source ~target with
  | None -> Alcotest.failf "no route %s -> %s" (Model.to_string source) (Model.to_string target)
  | Some path ->
    let entries = prefix_of_model inst source ~seed ~n in
    List.iter
      (fun e ->
        if not (Model.validates (View.spp inst) source e) then
          Alcotest.failf "source entry invalid in %s" (Model.to_string source))
      entries;
    let transformed = Transform.apply_path path inst entries in
    List.iter
      (fun e ->
        if not (Model.validates (View.spp inst) target e) then
          Alcotest.failf "transformed entry invalid in %s: %a" (Model.to_string target)
            (Activation.pp inst) e)
      transformed;
    let level = Transform.path_level path in
    let original = pi_seq inst entries in
    let realized = pi_seq inst transformed in
    if not (Seqcheck.check level ~original ~realized) then
      Alcotest.failf "%s -> %s: %s relation violated (seed %d)"
        (Model.to_string source) (Model.to_string target) (Relation.to_string level) seed

let transform_cases =
  (* Each constructive primitive, plus composite chains. *)
  [
    ("RMS->RES exact (Prop 3.4)", "RMS", "RES");
    ("UMS->UES exact (Prop 3.4)", "UMS", "UES");
    ("RMA->R1A rep (Thm 3.5)", "RMA", "R1A");
    ("RMO->R1O rep (Thm 3.5)", "RMO", "R1O");
    ("UMF->U1F rep (Thm 3.5)", "UMF", "U1F");
    ("R1S->R1O subseq (Prop 3.6)", "R1S", "R1O");
    ("U1S->U1O rep (Prop 3.6)", "U1S", "U1O");
    ("U1O->R1S exact (Thm 3.7)", "U1O", "R1S");
    ("REA->RMS exact (embedding chain)", "REA", "RMS");
    ("REO->UMS exact (embedding chain)", "REO", "UMS");
    ("RMA->R1O subseq (4-rule chain)", "RMA", "R1O");
    ("REA->R1O subseq (longest chain)", "REA", "R1O");
    ("U1O->RMS exact (via Thm 3.7)", "U1O", "RMS");
    ("UMO->R1S rep (chain)", "UMO", "R1S");
  ]

let test_transforms_on_gadgets () =
  List.iter
    (fun (name, src, tgt) ->
      List.iter
        (fun inst ->
          List.iter
            (fun seed ->
              check_transform_once inst ~source:(model src) ~target:(model tgt) ~seed ~n:40)
            [ 1; 2; 3 ])
        [ Gadgets.disagree; Gadgets.fig6 ];
      ignore name)
    transform_cases

let gen_seed = QCheck2.Gen.int_range 0 100_000

let prop_transform name src tgt =
  let src = model src and tgt = model tgt in
  QCheck2.Test.make ~name ~count:25 gen_seed (fun seed ->
      let cfg = { Generator.default with seed = seed mod 1000; nodes = 5 } in
      let inst = Generator.instance cfg in
      check_transform_once inst ~source:src ~target:tgt ~seed ~n:30;
      true)

let transform_properties =
  [
    prop_transform "random: RMS->RES exact" "RMS" "RES";
    prop_transform "random: RMA->R1A repetition" "RMA" "R1A";
    prop_transform "random: RMO->R1O repetition" "RMO" "R1O";
    prop_transform "random: R1S->R1O subsequence" "R1S" "R1O";
    prop_transform "random: U1S->U1O repetition" "U1S" "U1O";
    prop_transform "random: U1O->R1S exact" "U1O" "R1S";
    prop_transform "random: UMA->R1O subsequence" "UMA" "R1O";
    prop_transform "random: REA->UMS exact" "REA" "UMS";
  ]

let test_route_levels_match_closure () =
  (* The constructive route level equals the closure's proven level for
     every ordered pair: all positive facts are constructive. *)
  let c = Lazy.force closure in
  List.iter
    (fun source ->
      List.iter
        (fun target ->
          if not (Model.equal source target) then begin
            let proven = (Closure.cell c ~realized:source ~realizer:target).Closure.proven in
            match Transform.route ~source ~target with
            | None ->
              Alcotest.(check int)
                (Fmt.str "no route %a->%a" Model.pp source Model.pp target)
                0 proven
            | Some path ->
              Alcotest.(check int)
                (Fmt.str "route level %a->%a" Model.pp source Model.pp target)
                proven
                (Relation.to_int (Transform.path_level path))
          end)
        Model.all)
    Model.all


let test_every_positive_cell_witnessed () =
  (* Exhaustiveness: every positive cell of Figures 3-4 (345 ordered pairs)
     has a constructive route whose application to a live DISAGREE schedule
     satisfies the cell's claimed relation level. *)
  let c = Lazy.force closure in
  let inst = Gadgets.disagree in
  let checked = ref 0 in
  List.iter
    (fun source ->
      List.iter
        (fun target ->
          if not (Model.equal source target) then begin
            let proven = (Closure.cell c ~realized:source ~realizer:target).Closure.proven in
            if proven > 0 then begin
              match Transform.route ~source ~target with
              | None ->
                Alcotest.failf "no constructive route for proven pair %a -> %a" Model.pp
                  source Model.pp target
              | Some path ->
                let level = Transform.path_level path in
                if Relation.to_int level < proven then
                  Alcotest.failf "route weaker than cell for %a -> %a" Model.pp source
                    Model.pp target;
                let entries = prefix_of_model inst source ~seed:1 ~n:15 in
                let transformed = Transform.apply_path path inst entries in
                if
                  not
                    (Seqcheck.check level ~original:(pi_seq inst entries)
                       ~realized:(pi_seq inst transformed))
                then
                  Alcotest.failf "relation violated for %a -> %a" Model.pp source Model.pp
                    target;
                incr checked
            end
          end)
        Model.all)
    Model.all;
  Alcotest.(check int) "345 positive cells witnessed" 345 !checked

let test_facts_counts () =
  Alcotest.(check int) "negative facts" 15 (List.length Facts.negatives);
  (* 111 strict syntactic inclusions (3 reliability pairs x 5 neighbor
     pairs x 9 message pairs, minus the 24 identities) + 2 widenings
     + 8 splittings + 3 named constructions *)
  Alcotest.(check int) "positive facts" 124 (List.length Facts.positives)

let test_relation_basics () =
  Alcotest.(check int) "exact=4" 4 (Relation.to_int Relation.Exact);
  Alcotest.(check (list int)) "weaker of rep" [ 3; 2; 1 ]
    (List.map Relation.to_int (Relation.weaker Relation.Repetition));
  Alcotest.(check bool) "min" true
    (Relation.min_level Relation.Exact Relation.Subsequence = Relation.Subsequence)


(* ------------------------------------------------------------------ *)
(* More relation and table properties *)

let gen_short_trace =
  (* random assignment sequences over DISAGREE states *)
  QCheck2.Gen.(
    let* seed = int_range 0 99_999 in
    let* steps = int_range 1 20 in
    return (seed, steps))

let trace_of (seed, steps) =
  let inst = Gadgets.disagree in
  let m = model "UMS" in
  let entries = Scheduler.prefix steps (Scheduler.random inst m ~seed) in
  Trace.assignments ~include_initial:true (Executor.run_entries inst entries)

let prop_exact_implies_repetition =
  QCheck2.Test.make ~name:"exact implies repetition implies subsequence" ~count:60
    gen_short_trace (fun input ->
      let t = trace_of input in
      Seqcheck.is_exact ~original:t ~realized:t
      && Seqcheck.is_repetition ~original:t ~realized:t
      && Seqcheck.is_subsequence ~original:t ~realized:t)

let prop_repetition_expansion =
  QCheck2.Test.make ~name:"duplicating elements preserves repetition" ~count:60
    gen_short_trace (fun input ->
      let t = trace_of input in
      let doubled = List.concat_map (fun a -> [ a; a ]) t in
      Seqcheck.is_repetition ~original:t ~realized:doubled
      && Seqcheck.is_subsequence ~original:t ~realized:doubled)

let prop_subsequence_of_superset =
  QCheck2.Test.make ~name:"dropping a non-initial suffix breaks exactness" ~count:60
    gen_short_trace (fun input ->
      let t = trace_of input in
      List.length t < 2
      ||
      let shorter = List.filteri (fun i _ -> i < List.length t - 1) t in
      not (Seqcheck.is_exact ~original:t ~realized:shorter))

let test_paper_tables_shape () =
  (* 24 rows x 12 columns, minus the 12 diagonal cells, per figure. *)
  Alcotest.(check int) "fig3 cells" 276 (List.length Paper_tables.fig3);
  Alcotest.(check int) "fig4 cells" 276 (List.length Paper_tables.fig4);
  List.iter
    (fun (_, _, (c : Paper_tables.constr)) ->
      Alcotest.(check bool) "bounds ordered" true
        (c.Paper_tables.lo <= c.Paper_tables.hi))
    (Paper_tables.fig3 @ Paper_tables.fig4)

let test_closure_monotone_in_facts () =
  (* Removing facts can only weaken conclusions. *)
  let full = Lazy.force closure in
  let fewer =
    Closure.derive_exn
      ~positives:
        (List.filter (fun (f : Facts.positive) -> f.Facts.source <> "Thm. 3.5") Facts.positives)
      ~negatives:Facts.negatives ()
  in
  List.iter
    (fun (a, b, (c : Closure.cell)) ->
      let c' = Closure.cell fewer ~realized:a ~realizer:b in
      Alcotest.(check bool) "proven weakly smaller" true (c'.Closure.proven <= c.Closure.proven);
      Alcotest.(check bool) "disproven weakly larger" true
        (c'.Closure.disproven >= c.Closure.disproven))
    (Closure.cells full)

let test_closure_without_negatives_all_unknown_upper () =
  let pos_only = Closure.derive_exn ~negatives:[] () in
  List.iter
    (fun (_, _, (c : Closure.cell)) ->
      Alcotest.(check int) "nothing disproven" 5 c.Closure.disproven)
    (Closure.cells pos_only)

let test_transform_embed_is_identity () =
  let inst = Gadgets.disagree in
  let entries = Scheduler.prefix 10 (Scheduler.random inst (model "R1O") ~seed:4) in
  let edge =
    List.find
      (fun (e : Transform.edge) ->
        e.Transform.rule = Transform.Embed
        && Model.equal e.Transform.source (model "R1O")
        && Model.equal e.Transform.target (model "UMS"))
      Transform.edges
  in
  Alcotest.(check int) "same length" (List.length entries)
    (List.length (Transform.apply_edge edge inst entries))

let test_proof_provenance () =
  let c = Lazy.force closure in
  (* Every proven cell has a proof, every disproven one a refutation, and
     both render without raising. *)
  List.iter
    (fun (realized, realizer, (cl : Closure.cell)) ->
      (match Closure.proof c ~realized ~realizer with
      | Some _ -> Alcotest.(check bool) "proof iff proven" true (cl.Closure.proven > 0)
      | None -> Alcotest.(check int) "no proof iff unproven" 0 cl.Closure.proven);
      (match Closure.refutation c ~realized ~realizer with
      | Some _ ->
        Alcotest.(check bool) "refutation iff disproven" true (cl.Closure.disproven < 5)
      | None -> Alcotest.(check int) "no refutation iff undisproven" 5 cl.Closure.disproven);
      let text = Closure.explain c ~realized ~realizer in
      Alcotest.(check bool) "non-empty explanation" true (String.length text > 0))
    (Closure.cells c)

let test_refinement_derivation_cites_prop_3_11 () =
  (* The sharpened U1O/R1O upper bound must bottom out in Prop. 3.11. *)
  let c = Lazy.force closure in
  let text = Closure.explain c ~realized:(model "U1O") ~realizer:(model "R1O") in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec loop i = i + n <= h && (String.sub text i n = needle || loop (i + 1)) in
    loop 0
  in
  Alcotest.(check bool) "cites Prop. 3.11" true (contains "Prop. 3.11");
  Alcotest.(check bool) "cites Thm. 3.7" true (contains "Thm. 3.7")

let test_route_reflexive_and_missing () =
  Alcotest.(check bool) "self route empty" true
    (Transform.route ~source:(model "RMS") ~target:(model "RMS") = Some []);
  (* REO cannot realize R1O at any level (Thm. 3.8): no constructive route. *)
  Alcotest.(check bool) "no R1O->REO route" true
    (Transform.route ~source:(model "R1O") ~target:(model "REO") = None)

let extra_qcheck =
  List.map QCheck_alcotest.to_alcotest
    [ prop_exact_implies_repetition; prop_repetition_expansion; prop_subsequence_of_superset ]

let () =
  Alcotest.run "realization"
    [
      ( "seqcheck",
        [
          Alcotest.test_case "exact" `Quick test_seqcheck_exact;
          Alcotest.test_case "repetition" `Quick test_seqcheck_repetition;
          Alcotest.test_case "subsequence" `Quick test_seqcheck_subsequence;
        ] );
      ( "closure",
        [
          Alcotest.test_case "consistent" `Quick test_closure_no_contradiction;
          Alcotest.test_case "matches Figures 3-4" `Quick test_closure_matches_paper;
          Alcotest.test_case "known refinements" `Quick test_closure_known_refinements;
          Alcotest.test_case "headline facts (Sec 3.5)" `Quick test_closure_headline_facts;
          Alcotest.test_case "cell rendering" `Quick test_cell_rendering;
          Alcotest.test_case "relation basics" `Quick test_relation_basics;
          Alcotest.test_case "fact counts" `Quick test_facts_counts;
        ] );
      ( "transforms",
        [
          Alcotest.test_case "all primitives and chains on gadgets" `Slow
            test_transforms_on_gadgets;
          Alcotest.test_case "route levels match closure" `Quick
            test_route_levels_match_closure;
          Alcotest.test_case "every positive cell witnessed live" `Slow
            test_every_positive_cell_witnessed;
        ] );
      ("transform-properties", List.map QCheck_alcotest.to_alcotest transform_properties);
      ( "tables-and-rules",
        [
          Alcotest.test_case "paper table shape" `Quick test_paper_tables_shape;
          Alcotest.test_case "closure monotone in facts" `Quick test_closure_monotone_in_facts;
          Alcotest.test_case "no negatives, no upper bounds" `Quick
            test_closure_without_negatives_all_unknown_upper;
          Alcotest.test_case "embed is identity" `Quick test_transform_embed_is_identity;
          Alcotest.test_case "route edge cases" `Quick test_route_reflexive_and_missing;
          Alcotest.test_case "proof provenance" `Quick test_proof_provenance;
          Alcotest.test_case "refinement cites Prop 3.11" `Quick
            test_refinement_derivation_cites_prop_3_11;
        ] );
      ("relation-properties", extra_qcheck);
    ]

(* Differential conformance driver: fuzz the Fig. 3/4 realization matrices
   against the engine (see lib/conformance/), replay the committed corpus,
   or regenerate the committed sample entries.  Exit codes are the bench
   kit's: 0 no drift was detected (skipped-as-inconclusive negatives do
   not fail the run), 1 drift or a replay failure, 2 bad usage. *)

let ( / ) = Filename.concat

(* The committed sample corpus: one positive trial per realization level
   (expectations recorded from the actual verdict, so a drifting engine
   fails replay, not generation) and the fast appendix refutations. *)
let write_samples dir =
  Conformance.Trial.force_routes ();
  let level_fact level =
    List.find_opt
      (fun (f : Realization.Facts.positive) -> f.Realization.Facts.level = level)
      Realization.Facts.positives
  in
  List.iter
    (fun level ->
      match level_fact level with
      | None -> ()  (* no positive fact is stated at this level *)
      | Some f ->
      let inst_name, inst = List.hd (Conformance.Fuzz.instance_pool ~seeds:1) in
      let entries =
        Conformance.Fuzz.schedule inst f.Realization.Facts.realized ~seed:42
          ~len:10
      in
      let trial = Conformance.Trial.of_fact f ~inst_name inst entries in
      let expect =
        match Conformance.Trial.check_positive trial with
        | Conformance.Trial.Holds -> Conformance.Corpus.Expect_holds
        | Conformance.Trial.Violated v -> Conformance.Corpus.Expect_violated v
      in
      let name =
        Fmt.str "sample-%s-%s-realizes-%s"
          (Realization.Relation.to_string level)
          (Engine.Model.to_string f.Realization.Facts.realizer)
          (Engine.Model.to_string f.Realization.Facts.realized)
      in
      Conformance.Corpus.save (dir / (name ^ ".json"))
        (Conformance.Corpus.positive ~name ~expect trial);
      Fmt.pr "wrote %s@." (name ^ ".json"))
    Realization.Relation.[ Oscillation; Subsequence; Repetition; Exact ];
  List.iter
    (fun (n : Conformance.Trial.negative) ->
      match n.Conformance.Trial.check with
      | Conformance.Trial.Refutation r when n.Conformance.Trial.cost = Conformance.Trial.Fast ->
        let f = n.Conformance.Trial.fact in
        let name =
          Fmt.str "sample-refute-%s-%s-%s"
            (Engine.Model.to_string f.Realization.Facts.non_realizer)
            (Engine.Model.to_string f.Realization.Facts.target)
            (String.lowercase_ascii (Realization.Relation.to_string r.level))
        in
        let cfg = Modelcheck.Explore.default_config in
        Conformance.Corpus.save (dir / (name ^ ".json"))
          {
            Conformance.Corpus.name;
            case =
              Conformance.Corpus.Negative_refutation
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
          };
        Fmt.pr "wrote %s@." (name ^ ".json")
      | _ -> ())
    (Conformance.Trial.negatives ())

let main () =
  let seeds = ref 5 in
  let budget = ref "default" in
  let domains = ref (Modelcheck.Explore.default_domains ()) in
  let emit = ref "" in
  let replay = ref "" in
  let samples = ref "" in
  let quiet = ref false in
  let checkpoint = ref "" in
  let checkpoint_every = ref 1 in
  let resume = ref false in
  let reduction = ref Modelcheck.Reduce.No_reduction in
  let spec =
    [
      ( "--seeds",
        Arg.Set_int seeds,
        "N generated instances joining the gadget pool (default 5)" );
      ( "--budget",
        Arg.Set_string budget,
        "smoke|default|deep negative-fact cost classes to run (default: default)" );
      ( "--domains",
        Arg.String
          (fun s ->
            if String.lowercase_ascii (String.trim s) = "auto" then
              domains := Modelcheck.Explore.auto_domains ()
            else
              match int_of_string_opt s with
              | Some d when d >= 1 -> domains := d
              | _ -> raise (Arg.Bad ("--domains expects an int >= 1 or \"auto\": " ^ s))),
        "N|auto worker domains for the positive sweep (default: DOMAINS env, 1 \
         otherwise; auto = recommended cores - 1)" );
      ("--emit", Arg.Set_string emit, "DIR serialize shrunk counterexamples to DIR");
      ( "--replay",
        Arg.Set_string replay,
        "DIR re-check every corpus entry in DIR and exit" );
      ( "--write-samples",
        Arg.Set_string samples,
        "DIR regenerate the committed sample corpus entries and exit" );
      ("--quiet", Arg.Set quiet, " suppress per-trial progress lines");
      ( "--reduction",
        Arg.String
          (fun s ->
            match Modelcheck.Reduce.of_string s with
            | Some Modelcheck.Reduce.Sym ->
              raise
                (Arg.Bad
                   "--reduction sym is not supported here: separation checks \
                    replay witnesses, which a symmetry quotient only preserves \
                    up to relabeling")
            | Some r -> reduction := r
            | None -> raise (Arg.Bad ("--reduction expects por|none: " ^ s))),
        "por|none state-space reduction for negative-check explorations \
         (default none)" );
      ( "--checkpoint",
        Arg.Set_string checkpoint,
        "PATH journal every finished trial to PATH, so a killed sweep can resume" );
      ( "--checkpoint-every",
        Arg.Set_int checkpoint_every,
        "N flush the journal to disk every N trials (default 1)" );
      ( "--resume",
        Arg.Set resume,
        " skip trials already recorded in the --checkpoint journal (same \
         seeds/budget only)" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "conformance [options]";
  if !replay <> "" then
    Kit.replay_dir !replay (fun path ->
        let o = Conformance.replay_file path in
        (o.Conformance.Corpus.ok, o.name, o.detail))
  else if !samples <> "" then write_samples !samples
  else begin
    let budget =
      match Conformance.Fuzz.budget_of_string !budget with
      | Some b -> b
      | None -> Kit.usagef "unknown budget %S (smoke|default|deep)" !budget
    in
    if !resume && !checkpoint = "" then
      Kit.usagef "--resume requires --checkpoint PATH";
    if !checkpoint_every < 1 then
      Kit.usagef "--checkpoint-every expects an int >= 1";
    let cfg =
      {
        Conformance.Fuzz.seeds = !seeds;
        budget;
        domains = !domains;
        reduction = !reduction;
        emit_dir = (if !emit = "" then None else Some !emit);
        journal = (if !checkpoint = "" then None else Some !checkpoint);
        journal_every = !checkpoint_every;
        resume = !resume;
        log = (if !quiet then ignore else fun s -> Fmt.epr "%s@." s);
      }
    in
    let report = Conformance.Fuzz.run cfg in
    Fmt.pr "%a" Conformance.Fuzz.pp_report report;
    if not (Conformance.Fuzz.ok report) then Kit.gate_failed ()
  end

let () = Kit.run "conformance" main

(* Differential conformance driver: fuzz the Fig. 3/4 realization matrices
   against the engine (see lib/conformance/), replay the committed corpus,
   or regenerate the committed sample entries.  Exit codes are the bench
   kit's: 0 no drift was detected (skipped-as-inconclusive negatives do
   not fail the run), 1 drift or a replay failure, 2 bad usage. *)

(* The committed sample corpus: one positive trial per realization level
   (expectations recorded from the actual verdict, so a drifting engine
   fails replay, not generation) and the appendix refutations of a finite
   prefix. *)
let write_samples dir =
  Conformance.Trial.force_routes ();
  let emit (e : Conformance.Corpus.t) =
    Fmt.pr "wrote %s@." (Filename.basename (Conformance.Corpus.emit dir e.name e))
  in
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
      emit (Conformance.Corpus.positive ~name ~expect trial))
    Realization.Relation.[ Oscillation; Subsequence; Repetition; Exact ];
  List.iter
    (fun (n : Conformance.Trial.negative) ->
      match n.Conformance.Trial.check with
      | Conformance.Trial.Refutation r when r.termination = Modelcheck.Refute.Prefix ->
        let f = n.Conformance.Trial.fact in
        let name =
          Fmt.str "sample-refute-%s-%s-%s"
            (Engine.Model.to_string f.Realization.Facts.non_realizer)
            (Engine.Model.to_string f.Realization.Facts.target)
            (String.lowercase_ascii (Realization.Relation.to_string r.level))
        in
        let cfg = Modelcheck.Explore.default_config in
        emit
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
          }
      | _ -> ())
    (Conformance.Trial.negatives ())

let () =
  let seeds = ref 5 in
  let domains = ref None in
  let emit = ref None in
  let replay = ref None in
  let samples = ref None in
  let quiet = ref false in
  let reduction = ref Modelcheck.Reduce.No_reduction in
  let checkpoint_flags, checkpoint = Kit.checkpoint ~unit:"trials" ~every:1 in
  let flags =
    [
      Kit.int ~floor:0 "--seeds" seeds "N generated instances joining the gadget pool (default 5)";
      Kit.domains ~floor:1 domains;
      Kit.string "--emit" emit "DIR serialize shrunk counterexamples to DIR";
      Kit.string "--replay" replay "DIR re-check every corpus entry in DIR and exit";
      Kit.string "--write-samples" samples
        "DIR regenerate the committed sample corpus entries and exit";
      ("--quiet", Arg.Set quiet, " suppress per-trial progress lines");
      Kit.reduction reduction;
    ]
    @ checkpoint_flags
  in
  Kit.run ~flags "conformance" @@ fun () ->
  match (!replay, !samples) with
  | Some dir, _ ->
    Kit.replay_dir dir (fun path ->
        let o = Conformance.replay_file path in
        (o.Conformance.Corpus.ok, o.name, o.detail))
  | None, Some dir -> write_samples dir
  | None, None ->
    let ck = checkpoint () in
    let cfg =
      {
        Conformance.Fuzz.seeds = !seeds;
        domains = Option.value !domains ~default:(Modelcheck.Explore.default_domains ());
        reduction = !reduction;
        emit_dir = !emit;
        journal = ck.path;
        journal_every = ck.every;
        resume = ck.resume;
        log = (if !quiet then ignore else fun s -> Fmt.epr "%s@." s);
      }
    in
    let report = Conformance.Fuzz.run cfg in
    Fmt.pr "%a" Conformance.Fuzz.pp_report report;
    if not (Conformance.Fuzz.ok report) then Kit.gate_failed ()

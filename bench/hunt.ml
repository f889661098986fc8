(* Adversarial divergence hunter driver: perturb convergent SPP instances
   and policies, statically prefilter, hunt survivors for model-dependent
   oscillations, shrink findings and emit them to a corpus directory; or
   replay a committed corpus.  Exit codes are the bench kit's: 0 the run
   completed and every requested gate held, 1 a gate or replay failed,
   2 bad usage or an unreadable or foreign input. *)

module Json = Engine.Metrics.Json

(* ------------------------------------------------------------------ *)
(* Artifact: schema commrouting/hunt_run/v1.  Everything except wall_s
   and resumed is deterministic in (seeds, budget), which is what the
   kill-resume gate compares.  The per-outcome "verdicts" map is keyed by
   model name, so it is opaque to the unknown-field check. *)

let artifact =
  {
    Kit.schema = "commrouting/hunt_run/v1";
    volatile_keys = [ "wall_s"; "resumed" ];
    known_keys =
      [
        (* top level *)
        "schema"; "seeds"; "budget"; "models"; "channel_bound"; "max_states";
        "candidates"; "skipped_static"; "explored"; "findings"; "skip_ratio";
        "outcomes";
        (* per outcome, and its finding *)
        "name"; "seed"; "descr"; "status"; "reason"; "finding"; "kind"; "nodes";
        "edges";
      ];
    opaque_keys = [ "verdicts" ];
  }

let artifact_of_report (r : Hunt.Search.report) ~wall_s =
  let outcome_json (o : Hunt.Search.outcome) =
    let base =
      [
        ("name", Json.Str o.Hunt.Search.name);
        ("seed", Json.Num (float_of_int o.Hunt.Search.seed));
        ("descr", Json.Str o.Hunt.Search.descr);
      ]
    in
    let status =
      match o.Hunt.Search.status with
      | Hunt.Search.Skipped_static reason ->
        [ ("status", Json.Str "skipped"); ("reason", Json.Str reason) ]
      | Hunt.Search.Explored verdicts ->
        [
          ("status", Json.Str "explored");
          ( "verdicts",
            Json.Obj
              (List.map
                 (fun (m, v) -> (Engine.Model.to_string m, Json.Str v))
                 verdicts) );
        ]
    in
    let finding =
      match o.Hunt.Search.finding with
      | None -> [ ("finding", Json.Null) ]
      | Some f ->
        [
          ( "finding",
            Json.Obj
              [
                ("name", Json.Str f.Hunt.Corpus.name);
                ("kind", Json.Str (Hunt.Corpus.kind_string f.Hunt.Corpus.kind));
                ("nodes", Json.Num (float_of_int (Spp.Instance.size f.Hunt.Corpus.inst)));
                ( "edges",
                  Json.Num
                    (float_of_int
                       (List.length (Spp.Instance.edges f.Hunt.Corpus.inst))) );
              ] );
        ]
    in
    Json.Obj (base @ status @ finding)
  in
  Json.Obj
    [
      ("schema", Json.Str artifact.Kit.schema);
      ("seeds", Json.Num (float_of_int r.Hunt.Search.seeds));
      ("budget", Json.Str (Engine.Journal.budget_name r.Hunt.Search.budget));
      ( "models",
        Json.List
          (List.map
             (fun m -> Json.Str (Engine.Model.to_string m))
             r.Hunt.Search.checked_models) );
      ( "channel_bound",
        Json.Num
          (float_of_int r.Hunt.Search.config.Modelcheck.Explore.channel_bound) );
      ( "max_states",
        Json.Num (float_of_int r.Hunt.Search.config.Modelcheck.Explore.max_states)
      );
      ("candidates", Json.Num (float_of_int (Hunt.Search.candidates_total r)));
      ("skipped_static", Json.Num (float_of_int (Hunt.Search.skipped_static r)));
      ("explored", Json.Num (float_of_int (Hunt.Search.explored r)));
      ( "findings",
        Json.Num (float_of_int (List.length (Hunt.Search.findings r))) );
      ("skip_ratio", Json.Num (Hunt.Search.skip_ratio r));
      ("resumed", Json.Num (float_of_int (Hunt.Search.resumed r)));
      ("outcomes", Json.List (List.map outcome_json r.Hunt.Search.outcomes));
      ("wall_s", Json.Num wall_s);
    ]

let () =
  let seeds = ref 5 in
  let budget = ref Engine.Journal.Smoke in
  let domains = ref None in
  let emit = ref None in
  let out = ref "" in
  let replay = ref None in
  let quiet = ref false in
  let min_findings = ref 0 in
  let min_skip_ratio = ref None in
  let checkpoint_flags, checkpoint = Kit.checkpoint ~unit:"candidates" ~every:1 in
  let flags =
    [
      Kit.int ~floor:1 "--seeds" seeds "N perturbation-candidate batches to generate (default 5)";
      Kit.budget budget Engine.Journal.budget_name Engine.Journal.budgets "explorer budget class";
      Kit.domains ~floor:1 domains;
      Kit.string "--emit" emit "DIR serialize shrunk findings to DIR (atomic writes)";
      Kit.output out;
      Kit.string "--replay" replay "DIR re-check every corpus entry in DIR and exit";
      ("--quiet", Arg.Set quiet, " suppress per-candidate progress lines");
      Kit.int ~floor:0 "--min-findings" min_findings
        "N exit 1 unless at least N findings were made (default 0)";
      Kit.threshold "--min-skip-ratio" min_skip_ratio
        "X exit 1 unless the static prefilter skipped at least fraction X of candidates";
    ]
    @ checkpoint_flags
  in
  Kit.run ~artifact ~flags "hunt" @@ fun () ->
  match !replay with
  | Some dir ->
    Kit.replay_dir dir (fun path ->
        let o = Hunt.replay_file path in
        (o.Hunt.Corpus.ok, o.name, o.detail))
  | None ->
    let ck = checkpoint () in
    let cfg =
      {
        Hunt.Search.seeds = !seeds;
        budget = !budget;
        domains = Option.value !domains ~default:(Modelcheck.Explore.default_domains ());
        emit_dir = !emit;
        journal = ck.path;
        journal_every = ck.every;
        resume = ck.resume;
        log = (if !quiet then ignore else fun s -> Fmt.epr "%s@." s);
      }
    in
    let t0 = Unix.gettimeofday () in
    let report = Hunt.Search.run cfg in
    let wall_s = Unix.gettimeofday () -. t0 in
    Fmt.pr "%a@." Hunt.Search.pp_report report;
    if !out <> "" then begin
      Engine.Snapshot.write_atomic !out
        (Json.to_string (artifact_of_report report ~wall_s) ^ "\n");
      Fmt.pr "wrote %s@." !out
    end;
    let nfindings = List.length (Hunt.Search.findings report) in
    let ratio = Hunt.Search.skip_ratio report in
    if nfindings < !min_findings then
      Kit.gatef "only %d finding(s), --min-findings %d" nfindings !min_findings;
    Option.iter
      (fun floor ->
        if ratio < floor then
          Kit.gatef "static skip ratio %.2f below --min-skip-ratio %.2f" ratio floor)
      !min_skip_ratio

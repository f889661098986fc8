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
      ("budget", Json.Str (Hunt.Search.budget_to_string r.Hunt.Search.budget));
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

let main () =
  let seeds = ref 5 in
  let budget = ref "smoke" in
  let domains = ref (Modelcheck.Explore.default_domains ()) in
  let emit = ref "" in
  let out = ref "" in
  let replay = ref "" in
  let checkpoint = ref "" in
  let checkpoint_every = ref 1 in
  let resume = ref false in
  let quiet = ref false in
  let min_findings = ref 0 in
  let min_skip_ratio = ref 0. in
  let spec =
    [
      ( "--seeds",
        Arg.Set_int seeds,
        "N perturbation-candidate batches to generate (default 5)" );
      ( "--budget",
        Arg.Set_string budget,
        "smoke|default|deep explorer budget class (default: smoke)" );
      ( "--domains",
        Arg.String
          (fun s ->
            if String.lowercase_ascii (String.trim s) = "auto" then
              domains := Modelcheck.Explore.auto_domains ()
            else
              match int_of_string_opt s with
              | Some d when d >= 1 -> domains := d
              | _ ->
                raise (Arg.Bad ("--domains expects an int >= 1 or \"auto\": " ^ s))),
        "N|auto pool workers checking candidates (default: DOMAINS env, 1 \
         otherwise)" );
      ( "--emit",
        Arg.Set_string emit,
        "DIR serialize shrunk findings to DIR (atomic writes)" );
      ("-o", Arg.Set_string out, "PATH write the run artifact JSON to PATH");
      ( "--replay",
        Arg.Set_string replay,
        "DIR re-check every corpus entry in DIR and exit" );
      ( "--checkpoint",
        Arg.Set_string checkpoint,
        "PATH journal every finished candidate to PATH, so a killed hunt can \
         resume" );
      ( "--checkpoint-every",
        Arg.Set_int checkpoint_every,
        "N flush the journal to disk every N candidates (default 1)" );
      ( "--resume",
        Arg.Set resume,
        " skip candidates already recorded in the --checkpoint journal (same \
         seeds/budget only)" );
      ("--quiet", Arg.Set quiet, " suppress per-candidate progress lines");
      ( "--min-findings",
        Arg.Set_int min_findings,
        "N exit 1 unless at least N findings were made (default 0)" );
      ( "--min-skip-ratio",
        Arg.Set_float min_skip_ratio,
        "X exit 1 unless the static prefilter skipped at least fraction X of \
         candidates (default 0)" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "hunt [options]\n\
     hunt --compare-ignoring-timings A B  compare two run artifacts, ignoring \
     wall times and resume counts; exit 0 iff they agree";
  if !replay <> "" then
    Kit.replay_dir !replay (fun path ->
        let o = Hunt.replay_file path in
        (o.Hunt.Corpus.ok, o.name, o.detail))
  else
  let budget =
    match Hunt.Search.budget_of_string !budget with
    | Some b -> b
    | None -> Kit.usagef "unknown budget %S (smoke|default|deep)" !budget
  in
  if !resume && !checkpoint = "" then Kit.usagef "--resume requires --checkpoint PATH";
  if !checkpoint_every < 1 then Kit.usagef "--checkpoint-every expects an int >= 1";
  if !seeds < 1 then Kit.usagef "--seeds expects an int >= 1";
  let cfg =
    {
      Hunt.Search.seeds = !seeds;
      budget;
      domains = !domains;
      emit_dir = (if !emit = "" then None else Some !emit);
      journal = (if !checkpoint = "" then None else Some !checkpoint);
      journal_every = !checkpoint_every;
      resume = !resume;
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
  if ratio < !min_skip_ratio then
    Kit.gatef "static skip ratio %.2f below --min-skip-ratio %.2f" ratio
      !min_skip_ratio

let () = Kit.run ~artifact "hunt" main

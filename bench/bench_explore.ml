(* Machine-readable state-space-exploration benchmarks.

   Runs each (instance, model) case once sequentially (domains=1) and once
   on a worker pool (domains=N), checks that verdicts and reachable-state
   counts agree, and renders everything as BENCH_explore.json so the perf
   trajectory is tracked over time.  Schema: see EXPERIMENTS.md.  The
   flag table at the bottom owns the [DEEP] env handling. *)

open Spp
open Engine
module Json = Metrics.Json

let schema = "commrouting/bench_explore/v4"

(* The state/route representation this binary was built with; recorded in
   the artifact so perf numbers are attributable across the PR 2 arena
   refactor. *)
let repr = "arena"

(* Case-table model names are literals, but a typo must die with the list
   of valid names and exit code 2 — the CLI's bad-arguments convention —
   not a bare [Invalid_argument] out of [Option.get]. *)
let model s =
  match Model.of_string s with
  | Some m -> m
  | None ->
    Kit.inputf "unknown model name %S (expected one of %s)" s
      (String.concat ", " (List.map Model.to_string Model.all))

type case = {
  instance_name : string;
  inst : Instance.t;
  m : Model.t;
  config : Modelcheck.Explore.config;
  deep : bool;  (* FIG6-class exhaustive case: subject to --min-speedup *)
}

let case ?(config = Modelcheck.Explore.default_config) ?(deep = false) instance_name
    inst mname =
  { instance_name; inst; m = model mname; config; deep }

(* The fast subset runs in well under a second; the deep cases are the Fig. 6
   exhaustive polling runs the paper harness also performs. *)
let fast_cases () =
  [
    case "DISAGREE" Gadgets.disagree "R1O";
    case "DISAGREE" Gadgets.disagree "REA";
    case "DISAGREE" Gadgets.disagree "UMS";
    case "FIG6" Gadgets.fig6 "REA";
  ]

let deep_cases () =
  [ case ~deep:true "FIG6" Gadgets.fig6 "R1A"; case ~deep:true "FIG6" Gadgets.fig6 "RMA" ]

type run = {
  domains : int;
      (* the domain count the exploration actually ran with, from the
         metrics — for the sequential-only checkpoint mode the bench
         passes no explicit count and the library may downgrade an
         environment-implied one, recording why in [downgraded] *)
  states : int;
  edges : int;
  wall_s : float;
  states_per_sec : float;
  dedup_rate : float;
  peak_frontier : int;
  ample_states : int;  (* POR: states expanded through a proper ample subset *)
  canonicalized : int;  (* sym: interns rewritten to an orbit representative *)
  pruned : bool;
  truncated : bool;
  verdict : string;
  downgraded : string option;
  pool_engaged : bool;
      (* a [domains > 1] setting actually handed work to the pool; false
         means the adaptive cutover (or 1-core default) degraded the run to
         the sequential path, so its wall time measures sequential code *)
}

(* One timed exploration.  With [repeat > 1] the case runs that many times
   and the fastest run is kept ([Kit.best_of]; fresh metrics each time, so
   counters never accumulate across repetitions), and every repetition
   must agree on verdict and state count.  Pool engagement is detected per
   repetition from the persistent pool's [runs] counter: a parallel
   setting whose exploration never bumped it silently took the sequential
   path (e.g. [default_spill] is infinite on 1-core hosts), and reporting
   its time as a parallel measurement would be a lie — see [speedup_of]. *)
let run_one ?ckpt ~reduction c ~domains ~spill ~repeat =
  let checkpoint, resume =
    match ckpt with
    | None -> (None, None)
    | Some (path, every, resume) ->
      let snap =
        if resume && Sys.file_exists path then
          match Snapshot.load ~path c.inst with
          | Ok s -> Some s
          | Error e ->
            (* An existing but unloadable checkpoint is a real finding
               (truncation cannot happen — writes are atomic — so this is
               bit-rot or a foreign file); resuming from scratch would
               silently hide it. *)
            Kit.inputf "%s" (Snapshot.error_to_string e)
        else None
      in
      (Some { Modelcheck.Explore.path; every }, snap)
  in
  let once () =
    let metrics = Metrics.create () in
    let pool_runs_before = (Pool.stats (Pool.get ())).Pool.runs in
    let graph =
      Modelcheck.Explore.explore_compact ~config:c.config ~reduction ?domains ?spill ~metrics
        ?checkpoint ?resume c.inst c.m
    in
    let engaged = (Pool.stats (Pool.get ())).Pool.runs > pool_runs_before in
    let verdict =
      Metrics.timed ~m:metrics "analyze" (fun () ->
          Modelcheck.Oscillation.verdict_name
            (Modelcheck.Oscillation.analyze_compact c.inst graph))
    in
    (metrics, graph, verdict, engaged)
  in
  let (metrics, graph, verdict, pool_engaged), _ =
    Kit.best_of ~repeat
      ~digest:(fun (_, (g : Modelcheck.Explore.compact), v, _) ->
        Printf.sprintf "%s/%d" v (Array.length g.states))
      (Printf.sprintf "%s/%s" c.instance_name (Model.to_string c.m))
      once
  in
  {
    domains = Metrics.domains metrics;
    states = Array.length graph.Modelcheck.Explore.states;
    edges = Metrics.edges metrics;
    wall_s = Metrics.phase_time metrics "explore";
    states_per_sec = Metrics.states_per_sec metrics;
    dedup_rate = Metrics.dedup_rate metrics;
    peak_frontier = Metrics.peak_frontier metrics;
    ample_states = Metrics.ample_states metrics;
    canonicalized = Metrics.canonicalized metrics;
    pruned = graph.Modelcheck.Explore.pruned;
    truncated = graph.Modelcheck.Explore.truncated;
    verdict;
    downgraded = Metrics.downgrade metrics;
    pool_engaged;
  }

let json_of_run r =
  Json.Obj
    [
      ("domains", Json.Num (float_of_int r.domains));
      ("states", Json.Num (float_of_int r.states));
      ("edges", Json.Num (float_of_int r.edges));
      ("wall_s", Json.Num r.wall_s);
      ("states_per_sec", Json.Num r.states_per_sec);
      ("dedup_rate", Json.Num r.dedup_rate);
      (* A pool run's peak is that of its in-flight counter, which depends
         on scheduling: only a sequential run's peak is reproducible. *)
      ( "peak_frontier",
        if r.pool_engaged then Json.Null else Json.Num (float_of_int r.peak_frontier) );
      ("ample_states", Json.Num (float_of_int r.ample_states));
      ("canonicalized", Json.Num (float_of_int r.canonicalized));
      ("pruned", Json.Bool r.pruned);
      ("truncated", Json.Bool r.truncated);
      ("verdict", Json.Str r.verdict);
      ( "downgraded",
        match r.downgraded with None -> Json.Null | Some why -> Json.Str why );
      ("pool_engaged", Json.Bool r.pool_engaged);
    ]

type case_result = {
  c : case;
  runs : run list;
  agree : bool; (* verdicts and state counts identical across domain counts *)
}

(* [domains_list] holds [Some d] for an explicit per-run domain request and
   [None] for "let the library decide" — the sequential-only checkpoint
   mode uses [None] so an environment-implied parallelism default is downgraded (and
   the downgrade recorded) by the library instead of asserted here. *)
let run_case ?ckpt ~reduction ~domains_list ~spill ~repeat c =
  let runs =
    List.map
      (fun d -> run_one ?ckpt ~reduction c ~domains:d ~spill ~repeat)
      domains_list
  in
  let agree =
    match runs with
    | [] -> true
    | r0 :: rest ->
      List.for_all
        (fun r -> String.equal r.verdict r0.verdict && r.states = r0.states)
        rest
  in
  { c; runs; agree }

(* Sequential wall / parallel wall for the case — but only when the
   parallel setting actually engaged the pool.  If it silently degraded to
   the sequential path (1-core default spill, or a frontier that never
   outgrew the threshold) the ratio would be sequential-vs-sequential
   noise dressed up as a parallel speedup, so no [speedup] is reported at
   all and a `--min-speedup` gate fails the case loudly instead. *)
let speedup_of cr =
  match
    ( List.find_opt (fun r -> r.domains = 1) cr.runs,
      List.find_opt (fun r -> r.domains > 1) cr.runs )
  with
  | Some seq, Some par when par.pool_engaged && par.wall_s > 0. ->
    Some (seq.wall_s /. par.wall_s)
  | _ -> None

let json_of_case_result cr =
  Json.Obj
    ([
       ("instance", Json.Str cr.c.instance_name);
       ("model", Json.Str (Model.to_string cr.c.m));
       ("channel_bound", Json.Num (float_of_int cr.c.config.Modelcheck.Explore.channel_bound));
       ("max_states", Json.Num (float_of_int cr.c.config.Modelcheck.Explore.max_states));
       ("deep", Json.Bool cr.c.deep);
       ("runs", Json.List (List.map json_of_run cr.runs));
       ("agree", Json.Bool cr.agree);
     ]
    @ match speedup_of cr with None -> [] | Some s -> [ ("speedup", Json.Num s) ])

(* [par_domains]: DOMAINS when set and > 1, else 2 — there is always one
   parallel setting to compare against the sequential baseline. *)
let par_domains () = max 2 (Modelcheck.Explore.default_domains ())

(* The DEEP knob: unset or anything but "0" means deep. *)
let deep_env () =
  match Sys.getenv_opt "DEEP" with Some "0" -> false | Some _ | None -> true

(* Peak resident set of this process in KiB, from /proc/self/status (Linux);
   0 where unavailable. *)
let vm_hwm_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.index_opt line ':' with
           | Some i when String.sub line 0 i = "VmHWM" ->
             String.sub line (i + 1) (String.length line - i - 1)
             |> String.trim
             |> String.split_on_char ' '
             |> (function kb :: _ -> int_of_string_opt kb | [] -> None)
           | _ -> None)
    |> Option.value ~default:0
  | exception Sys_error _ -> 0

let run_all ~reduction ~deep ~domains ~spill ~repeat =
  let domains_list = [ Some 1; Some domains ] in
  let cases = fast_cases () @ (if deep then deep_cases () else []) in
  List.map (run_case ~reduction ~domains_list ~spill ~repeat) cases

(* Checkpointed variant: exploration order must be deterministic for a
   resumed run to be bit-identical, so only the sequential setting runs
   (one checkpoint file per case, derived from [base]).  A case's file is
   deleted once it completes — a file left behind always marks unfinished
   work, and [--resume] after a fully successful run starts fresh. *)
let ckpt_file base c =
  Printf.sprintf "%s.%s-%s" base c.instance_name (Model.to_string c.m)

let run_all_checkpointed ~reduction ~deep ~spill ~base ~every ~resume =
  let cases = fast_cases () @ (if deep then deep_cases () else []) in
  List.map
    (fun c ->
      let file = ckpt_file base c in
      let cr =
        run_case ~ckpt:(file, every, resume) ~reduction ~domains_list:[ None ]
          ~spill ~repeat:1 c
      in
      if Sys.file_exists file then Sys.remove file;
      cr)
    cases

let to_json ~reduction ~deep ~domains ~spill ~repeat results =
  let pool_stats =
    let s = Pool.stats (Pool.get ()) in
    Json.Obj
      [
        ("size", Json.Num (float_of_int s.Pool.size));
        ("spawned_total", Json.Num (float_of_int s.Pool.spawned_total));
        ("runs", Json.Num (float_of_int s.Pool.runs));
      ]
  in
  (* The spill threshold actually in effect for the parallel runs: the
     forced --spill value when given, else the hardware-aware default. *)
  let spill_threshold =
    match (spill, Modelcheck.Explore.default_spill ()) with
    | Some s, _ | None, Some s -> Json.Num (float_of_int s)
    | None, None -> Json.Null
  in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("repr", Json.Str repr);
      ("reduction", Json.Str (Modelcheck.Reduce.to_string reduction));
      ("deep", Json.Bool deep);
      ("domains_compared", Json.List [ Json.Num 1.; Json.Num (float_of_int domains) ]);
      ("repeat", Json.Num (float_of_int repeat));
      ("spill_threshold", spill_threshold);
      ("cases", Json.List (List.map json_of_case_result results));
      ("pool", pool_stats);
      ("vm_hwm_kb", Json.Num (float_of_int (vm_hwm_kb ())));
      ("arena_paths", Json.Num (float_of_int (Arena.size ())));
    ]

(* ------------------------------------------------------------------ *)
(* The artifact as the comparer sees it, for the kill-and-resume CI gate:
   two artifacts are equivalent when they differ only in measurements a
   resumed process cannot reproduce — wall times, rates, memory peaks,
   pool/arena occupancy, and the environment-dependent downgrade note.
   Everything else (states, edges, counters, verdicts, flags) must be
   identical.  The reduction counters [ample_states]/[canonicalized] are
   deliberately volatile — a resumed reduced run restores them from the
   snapshot, but what makes a reduced-vs-unreduced comparison fail is the
   semantic content: the top-level "reduction" tag and the state/edge
   counts, which are never blanked. *)

let artifact =
  {
    Kit.schema;
    volatile_keys =
      [
        "wall_s";
        "states_per_sec";
        "speedup";
        "vm_hwm_kb";
        "arena_paths";
        "pool";
        "ample_states";
        "canonicalized";
        "downgraded";
      ];
    known_keys =
      [
        (* top level *)
        "schema";
        "repr";
        "reduction";
        "deep";
        "domains_compared";
        "repeat";
        "spill_threshold";
        "cases";
        (* per case *)
        "instance";
        "model";
        "channel_bound";
        "max_states";
        "runs";
        "agree";
        (* per run *)
        "domains";
        "states";
        "edges";
        "dedup_rate";
        "peak_frontier";
        "pruned";
        "truncated";
        "verdict";
        "pool_engaged";
        (* pool stats *)
        "size";
        "spawned_total";
      ];
    opaque_keys = [];
  }

(* ------------------------------------------------------------------ *)
(* Reduction-parity gate: a reduced suite must reproduce the verdicts of a
   committed unreduced artifact case for case, and on deep cases must
   visit at least [min_reduction] times fewer states.  Matching is by
   (instance, model); a case the baseline artifact lacks is a failure —
   an uncompared verdict is not parity. *)

let parity_failures ~against ~min_reduction results =
  let str k obj = match Json.member k obj with Some (Json.Str s) -> Some s | _ -> None in
  let num k obj = match Json.member k obj with Some (Json.Num n) -> Some n | _ -> None in
  let base_cases =
    match Json.member "cases" against with Some (Json.List l) -> l | _ -> []
  in
  let find_case name m =
    List.find_opt
      (fun obj -> str "instance" obj = Some name && str "model" obj = Some m)
      base_cases
  in
  (* the sequential run of a baseline case: domains=1 when present, else
     the first recorded run *)
  let base_seq obj =
    match Json.member "runs" obj with
    | Some (Json.List runs) -> (
      match List.find_opt (fun r -> num "domains" r = Some 1.) runs with
      | Some r -> Some r
      | None -> ( match runs with r :: _ -> Some r | [] -> None))
    | _ -> None
  in
  List.concat_map
    (fun cr ->
      let name = cr.c.instance_name and m = Model.to_string cr.c.m in
      let cur =
        match List.find_opt (fun r -> r.domains = 1) cr.runs with
        | Some r -> Some r
        | None -> ( match cr.runs with r :: _ -> Some r | [] -> None)
      in
      match (cur, find_case name m) with
      | None, _ -> [ Printf.sprintf "%s/%s: no runs recorded" name m ]
      | Some _, None ->
        [ Printf.sprintf "%s/%s: missing from the --parity-against artifact" name m ]
      | Some cur, Some bc -> (
        match base_seq bc with
        | None -> [ Printf.sprintf "%s/%s: baseline case has no runs" name m ]
        | Some br ->
          let verdict_fail =
            if str "verdict" br <> Some cur.verdict then
              [
                Printf.sprintf "%s/%s: verdict %s differs from baseline %s" name m
                  cur.verdict
                  (Option.value ~default:"<absent>" (str "verdict" br));
              ]
            else []
          in
          let reduction_fail =
            match (min_reduction, num "states" br) with
            | Some floor, Some bs when cr.c.deep ->
              let ratio =
                if cur.states = 0 then infinity else bs /. float_of_int cur.states
              in
              if ratio < floor then
                [
                  Printf.sprintf
                    "%s/%s: reduction %.2fx (baseline %.0f -> %d states) below \
                     --min-reduction %.2f"
                    name m ratio bs cur.states floor;
                ]
              else []
            | Some _, None when cr.c.deep ->
              [ Printf.sprintf "%s/%s: baseline case lacks a states count" name m ]
            | _ -> []
          in
          verdict_fail @ reduction_fail))
    results

(* Runs the suite, writes [path], validates that the artifact re-parses and
   that every case agreed across domain counts.  Returns the failures.
   [parity] is a parsed unreduced artifact paired with an optional
   state-reduction floor (see [parity_failures]). *)
let emit ~path ~repeat ?min_speedup ?spill ~(checkpoint : Kit.checkpoint) ?parity
    ~reduction ~deep ~domains () =
  (* Checkpointing is sequential-only (a resumed run must match an
     uninterrupted one, which only the deterministic order guarantees), so
     the artifact records domains=1; the CLI refuses --repeat with it. *)
  let domains = if checkpoint.path <> None then 1 else domains in
  let results =
    match checkpoint.path with
    | Some base ->
      run_all_checkpointed ~reduction ~deep ~spill ~base ~every:checkpoint.every
        ~resume:checkpoint.resume
    | None -> run_all ~reduction ~deep ~domains ~spill ~repeat
  in
  let parse_failure =
    Kit.write_artifact path
      (to_json ~reduction ~deep ~domains ~spill ~repeat results)
  in
  let disagreements =
    List.filter_map
      (fun cr ->
        if cr.agree then None
        else
          Some
            (Printf.sprintf "%s/%s: domains disagree on verdict or state count"
               cr.c.instance_name (Model.to_string cr.c.m)))
      results
  in
  (* The regression gate: every deep (FIG6-class) case must reach the
     requested sequential-vs-parallel speedup, so the "parallel slower than
     sequential" regression this schema version fixed can never silently
     return. *)
  let slow =
    match min_speedup with
    | None -> []
    | Some floor ->
      List.filter_map
        (fun cr ->
          if not cr.c.deep then None
          else
            match speedup_of cr with
            | Some s when s >= floor -> None
            | Some s ->
              Some
                (Printf.sprintf "%s/%s: speedup %.3f below --min-speedup %.3f"
                   cr.c.instance_name (Model.to_string cr.c.m) s floor)
            | None ->
              Some
                (Printf.sprintf
                   "%s/%s: no parallel speedup measured — the domains>1 run \
                    never engaged the pool (--min-speedup %.3f)"
                   cr.c.instance_name (Model.to_string cr.c.m) floor))
        results
  in
  let parity_fails =
    match parity with
    | None -> []
    | Some (against, min_reduction) -> parity_failures ~against ~min_reduction results
  in
  (results, parse_failure @ disagreements @ slow @ parity_fails)

let pp_summary ppf results =
  List.iter
    (fun cr ->
      List.iter
        (fun r ->
          Fmt.pf ppf "  %-9s %-4s domains=%d states=%-7d %8.0f states/s (%.2fs) %s%s%s@."
            cr.c.instance_name (Model.to_string cr.c.m) r.domains r.states
            r.states_per_sec r.wall_s r.verdict
            (if r.domains > 1 && not r.pool_engaged then " [degraded to sequential]"
             else "")
            (match r.downgraded with
            | None -> ""
            | Some why -> Printf.sprintf " [downgraded: %s]" why))
        cr.runs)
    results

(* ------------------------------------------------------------------ *)
(* The CLI.  Exits 1 if the artifact fails to parse or the domain settings
   disagree on any verdict/state count, 2 on bad arguments (see Kit). *)

let () =
  let path = ref "BENCH_explore.json" in
  let domains = ref None in
  let repeat = ref 1 in
  let deep = ref (deep_env ()) in
  let reduction = ref Modelcheck.Reduce.No_reduction in
  let min_speedup = ref None in
  let spill = ref None in
  let parity_path = ref None in
  let min_reduction = ref None in
  let checkpoint_flags, checkpoint = Kit.checkpoint ~unit:"expanded states" ~every:2000 in
  let flags =
    [
      Kit.output path;
      Kit.domains ~floor:2 domains;
      Kit.repeat repeat;
      ("--deep", Arg.Set deep, " include the Fig. 6 exhaustive polling cases (default unless DEEP=0)");
      Kit.reduction reduction;
      Kit.min_speedup min_speedup "exit 1 if any deep case's speedup falls below X";
      ( "--spill",
        Arg.String (fun s -> spill := Some (Kit.int_arg ~floor:0 "--spill" s)),
        "N force the work-stealing cutover threshold (frontier size)" );
      Kit.string "--parity-against" parity_path
        "FILE exit 1 unless every case's verdict matches FILE's unreduced artifact";
      Kit.threshold "--min-reduction" min_reduction
        "X with --parity-against: exit 1 unless every deep case visits X times fewer states";
    ]
    @ checkpoint_flags
  in
  Kit.run ~artifact ~flags "bench_explore" @@ fun () ->
  let bad msg = Kit.usagef "%s" msg in
  let ck = checkpoint () in
  (* A parallel domain request combined with the sequential-only
     checkpoint mode is a contradiction; refuse it here (the library raises
     the same way) so the artifact never quietly records a different
     setting than asked. *)
  if ck.path <> None then begin
    if !domains <> None then
      bad "--domains is incompatible with --checkpoint (checkpointed runs use one domain)";
    if !repeat > 1 then
      bad "--repeat is incompatible with --checkpoint (checkpointed runs run each case once)";
    if !min_speedup <> None then
      bad "--min-speedup needs parallel runs; incompatible with --checkpoint";
    if !reduction = Modelcheck.Reduce.Sym then
      bad
        "--reduction sym cannot be checkpointed or resumed (orbit representatives are \
         process-local)"
  end;
  if !min_reduction <> None && !parity_path = None then
    bad "--min-reduction requires --parity-against FILE";
  let domains = Option.value !domains ~default:(par_domains ()) in
  let parity = Option.map (fun p -> (Kit.load p, !min_reduction)) !parity_path in
  let results, failures =
    emit ~path:!path ~repeat:!repeat ?min_speedup:!min_speedup ?spill:!spill ~checkpoint:ck
      ?parity ~reduction:!reduction ~deep:!deep ~domains ()
  in
  let mode =
    if ck.path <> None then "sequential, checkpointed"
    else Printf.sprintf "domains 1 vs %d" domains
  in
  Format.printf "explore bench (%s, reduction %s):@." mode
    (Modelcheck.Reduce.to_string !reduction);
  pp_summary Format.std_formatter results;
  Format.printf "wrote %s@." !path;
  match failures with
  | [] -> ()
  | fs ->
    List.iter (fun f -> Printf.eprintf "FAIL: %s\n" f) fs;
    Kit.gate_failed ()

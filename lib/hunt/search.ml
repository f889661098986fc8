(* The hunt driver: perturbation candidates -> static prefilter ->
   per-model oscillation sweep -> classification -> shrink -> corpus.

   Candidates are independent, so they run on the persistent
   {!Engine.Pool} through [Pool.map]; the per-candidate explorations
   themselves are forced sequential ([~domains:1]) — the parallelism
   budget is spent across candidates, not within them.  Every finished
   candidate is journaled
   (full outcome, including a finding's JSON), so a killed hunt resumes
   without re-spending explorer budget and reconstructs an identical
   artifact. *)

let model name =
  match Engine.Model.of_string name with
  | Some m -> m
  | None -> invalid_arg ("Search.model: " ^ name)

let models = function
  | Engine.Journal.Smoke -> [ model "R1O"; model "REO"; model "REA" ]
  | Default -> Engine.Model.reliable
  | Deep -> Engine.Model.all

let explore_config = function
  | Engine.Journal.Smoke -> { Modelcheck.Explore.channel_bound = 3; max_states = 4_000 }
  | Default -> { Modelcheck.Explore.channel_bound = 3; max_states = 20_000 }
  | Deep -> Modelcheck.Explore.default_config

type config = {
  seeds : int;
  budget : Engine.Journal.budget;
  domains : int;
  emit_dir : string option;
  journal : string option;
  journal_every : int;
  resume : bool;
  log : string -> unit;
}

let default_config =
  {
    seeds = 5;
    budget = Engine.Journal.Smoke;
    domains = Modelcheck.Explore.default_domains ();
    emit_dir = None;
    journal = None;
    journal_every = 1;
    resume = false;
    log = ignore;
  }

type status =
  | Skipped_static of string
  | Explored of (Engine.Model.t * string) list

type outcome = {
  name : string;
  seed : int;
  descr : string;
  status : status;
  finding : Corpus.finding option;
  resumed : bool;
}

type report = {
  seeds : int;
  budget : Engine.Journal.budget;
  checked_models : Engine.Model.t list;
  config : Modelcheck.Explore.config;
  outcomes : outcome list;  (** in candidate-generation order *)
}

let candidates_total r = List.length r.outcomes

let skipped_static r =
  List.length
    (List.filter
       (fun o -> match o.status with Skipped_static _ -> true | _ -> false)
       r.outcomes)

let explored r = candidates_total r - skipped_static r
let findings r = List.filter_map (fun o -> o.finding) r.outcomes
let resumed r = List.length (List.filter (fun o -> o.resumed) r.outcomes)

let skip_ratio r =
  let n = candidates_total r in
  if n = 0 then 0. else float_of_int (skipped_static r) /. float_of_int n

(* ------------------------------------------------------------------ *)
(* Candidate checking. *)

let analyze ~config inst m =
  Modelcheck.Oscillation.analyze ~config ~domains:1 inst m

let sweep ~config ~models inst =
  List.map
    (fun m -> (m, analyze ~config inst m))
    models

(* First oscillating model and first definitively converging model decide
   the classification; model order is the fixed paper order, so the
   classification is deterministic. *)
let classify verdicts =
  let osc =
    List.find_map
      (fun (m, v) ->
        match v with Modelcheck.Oscillation.Oscillates _ -> Some m | _ -> None)
      verdicts
  in
  let conv =
    List.find_map
      (fun (m, v) ->
        match v with Modelcheck.Oscillation.Converges -> Some m | _ -> None)
      verdicts
  in
  match (osc, conv) with
  | None, _ -> None
  | Some m, None -> Some (Corpus.Divergence { model = m })
  | Some m, Some m' ->
    Some (Corpus.Separation { oscillates_in = m; converges_in = m' })

let keep_of_kind ~config kind inst =
  match kind with
  | Corpus.Divergence { model } -> (
    match analyze ~config inst model with
    | Modelcheck.Oscillation.Oscillates _ -> true
    | _ -> false)
  | Corpus.Separation { oscillates_in; converges_in } -> (
    match analyze ~config inst oscillates_in with
    | Modelcheck.Oscillation.Oscillates _ -> (
      match analyze ~config inst converges_in with
      | Modelcheck.Oscillation.Converges -> true
      | _ -> false)
    | _ -> false)

let verdict_names verdicts =
  List.map (fun (m, v) -> (m, Modelcheck.Oscillation.verdict_name v)) verdicts

let check_candidate ~config ~models (c : Perturb.t) =
  match Precheck.run c with
  | Precheck.Skip r ->
    {
      name = c.Perturb.name;
      seed = c.Perturb.seed;
      descr = c.Perturb.descr;
      status = Skipped_static (Precheck.reason_string r);
      finding = None;
      resumed = false;
    }
  | Precheck.Explore { inst; wheel = _ } ->
    let verdicts = sweep ~config ~models inst in
    let finding =
      Option.map
        (fun kind ->
          let keep = keep_of_kind ~config kind in
          let minimal = Minimize.minimize ~keep inst in
          {
            Corpus.name = c.Perturb.name;
            seed = c.Perturb.seed;
            descr = c.Perturb.descr;
            inst = minimal;
            kind;
            channel_bound = config.Modelcheck.Explore.channel_bound;
            max_states = config.Modelcheck.Explore.max_states;
          })
        (classify verdicts)
    in
    {
      name = c.Perturb.name;
      seed = c.Perturb.seed;
      descr = c.Perturb.descr;
      status = Explored (verdict_names verdicts);
      finding;
      resumed = false;
    }

(* ------------------------------------------------------------------ *)
(* The driver. *)

let outcome_of_entry ~by_name = function
  | Journal.Skipped { name; reason } ->
    Option.map
      (fun (c : Perturb.t) ->
        {
          name;
          seed = c.Perturb.seed;
          descr = c.Perturb.descr;
          status = Skipped_static reason;
          finding = None;
          resumed = true;
        })
      (Hashtbl.find_opt by_name name)
  | Journal.Explored { name; verdicts; finding } ->
    Option.map
      (fun (c : Perturb.t) ->
        {
          name;
          seed = c.Perturb.seed;
          descr = c.Perturb.descr;
          status = Explored verdicts;
          finding;
          resumed = true;
        })
      (Hashtbl.find_opt by_name name)

let entry_of_outcome o =
  match o.status with
  | Skipped_static reason -> Journal.Skipped { name = o.name; reason }
  | Explored verdicts ->
    Journal.Explored { name = o.name; verdicts; finding = o.finding }

let run (cfg : config) =
  let config = explore_config cfg.budget in
  let checked = models cfg.budget in
  let cands = Array.of_list (Perturb.generate ~seeds:cfg.seeds) in
  let by_name = Hashtbl.create 64 in
  Array.iter (fun (c : Perturb.t) -> Hashtbl.replace by_name c.Perturb.name c) cands;
  let journal =
    Option.map
      (fun path ->
        let fp =
          Journal.fingerprint ~seeds:cfg.seeds
            ~budget:(Engine.Journal.budget_name cfg.budget)
            ~models:checked
            ~channel_bound:config.Modelcheck.Explore.channel_bound
            ~max_states:config.Modelcheck.Explore.max_states ()
        in
        Engine.Journal.open_ Journal.codec ~path ~fingerprint:fp ~resume:cfg.resume
          ~flush_every:cfg.journal_every)
      cfg.journal
  in
  let done_ = Hashtbl.create 64 in
  (match journal with
  | Some (_, entries) ->
    List.iter
      (fun e ->
        match outcome_of_entry ~by_name e with
        | Some o -> Hashtbl.replace done_ o.name o
        | None -> ())
      entries
  | None -> ());
  let check (c : Perturb.t) =
    let o =
      match Hashtbl.find_opt done_ c.Perturb.name with
      | Some o ->
        cfg.log (Printf.sprintf "%-22s resumed from journal" c.Perturb.name);
        o
      | None ->
        let o = check_candidate ~config ~models:checked c in
        (match o.status with
        | Skipped_static reason ->
          cfg.log (Printf.sprintf "%-22s skipped (%s)" o.name reason)
        | Explored verdicts ->
          cfg.log
            (Fmt.str "%-22s explored [%s]%a" o.name
               (String.concat ", "
                  (List.map (fun (m, v) -> Engine.Model.to_string m ^ "=" ^ v) verdicts))
               (Fmt.option (fun ppf (f : Corpus.finding) ->
                    Fmt.pf ppf " -> %a" Corpus.pp_kind f.Corpus.kind))
               o.finding));
        o
    in
    (* Emit before journaling: a journal record implies the corpus entry is
       already safely on disk (writes are atomic, so a resumed run
       re-emitting is idempotent). *)
    (match (o.finding, cfg.emit_dir) with
    | Some f, Some dir -> ignore (Corpus.emit dir f.Corpus.name f : string)
    | _ -> ());
    (match journal with
    | Some (w, _) when not o.resumed -> Engine.Journal.record w (entry_of_outcome o)
    | _ -> ());
    o
  in
  let outcomes = Engine.Pool.map (Engine.Pool.get ()) ~workers:cfg.domains check cands in
  Option.iter (fun (w, _) -> Engine.Journal.close w) journal;
  {
    seeds = cfg.seeds;
    budget = cfg.budget;
    checked_models = checked;
    config;
    outcomes = Array.to_list outcomes;
  }

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>hunt: %d candidate(s) from %d seed(s) at budget %s@,\
     static prefilter skipped %d (%.0f%%) before explorer spend@,\
     explored %d under [%s]; %d finding(s)%s@,%a@]"
    (candidates_total r) r.seeds
    (Engine.Journal.budget_name r.budget)
    (skipped_static r)
    (100. *. skip_ratio r)
    (explored r)
    (String.concat ", " (List.map Engine.Model.to_string r.checked_models))
    (List.length (findings r))
    (if resumed r > 0 then Printf.sprintf " (%d resumed)" (resumed r) else "")
    (Fmt.list ~sep:Fmt.cut (fun ppf (f : Corpus.finding) ->
         Fmt.pf ppf "  %s: %a (%d nodes, %d edges)" f.Corpus.name
           Corpus.pp_kind f.Corpus.kind
           (Spp.Instance.size f.Corpus.inst)
           (List.length (Spp.Instance.edges f.Corpus.inst))))
    (findings r)

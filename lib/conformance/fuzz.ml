type config = {
  seeds : int;
  domains : int;
  reduction : Modelcheck.Reduce.t;
  emit_dir : string option;
  journal : string option;
  journal_every : int;
  resume : bool;
  log : string -> unit;
}

let default_config =
  {
    seeds = 5;
    domains = Modelcheck.Explore.default_domains ();
    reduction = Modelcheck.Reduce.No_reduction;
    emit_dir = None;
    journal = None;
    journal_every = 1;
    resume = false;
    log = ignore;
  }

type negative_result = {
  neg : Trial.negative;
  verdict : Trial.negative_verdict;
}

type report = {
  positives_checked : int;
  positives_held : int;
  violations : (Trial.positive * Trial.violation) list;
  negatives : negative_result list;
  closure_contradiction : Realization.Closure.contradiction option;
}

(* ------------------------------------------------------------------ *)
(* Trial generation. *)

let instance_pool ~seeds =
  let generated =
    List.init (max 0 seeds) (fun i ->
        let cfg =
          {
            Spp.Generator.nodes = 4 + (i mod 4);
            extra_edges = i mod 3;
            max_paths_per_node = 3;
            max_path_len = 5;
            seed = i;
          }
        in
        (* Every fifth instance uses shortest-first ranking: convergent
           inputs exercise the quiescent side of the trace relations. *)
        let inst =
          if i mod 5 = 4 then Spp.Generator.safe_instance cfg
          else Spp.Generator.instance cfg
        in
        (Fmt.str "gen-%d" i, inst))
  in
  Spp.Gadgets.all_named () @ generated

let schedule inst model ~seed ~len =
  Engine.Scheduler.prefix len (Engine.Scheduler.random inst model ~seed)

let trials ~seeds =
  List.concat_map
    (fun (inst_name, inst) ->
      let len = max 8 (2 * Spp.Instance.size inst) in
      List.mapi
        (fun i (f : Realization.Facts.positive) ->
          let seed = Hashtbl.hash (inst_name, i) land 0x3FFFFFFF in
          Trial.of_fact f ~inst_name inst
            (schedule inst f.Realization.Facts.realized ~seed ~len))
        Realization.Facts.positives)
    (instance_pool ~seeds)

let run cfg =
  Trial.force_routes ();
  let ts = Array.of_list (trials ~seeds:cfg.seeds) in
  cfg.log
    (Fmt.str "conformance: %d positive trials (%d instances x %d facts), %d domain%s"
       (Array.length ts)
       (List.length (instance_pool ~seeds:cfg.seeds))
       (List.length Realization.Facts.positives)
       cfg.domains
       (if cfg.domains = 1 then "" else "s"));
  (* The journal prefills verdicts already earned by an interrupted sweep:
     held positives are skipped outright, violated ones re-checked (to
     regain the violation payload), and journaled negatives replayed. *)
  let prior_pos = Array.make (max 1 (Array.length ts)) false in
  let prior_neg = Hashtbl.create 16 in
  let journal =
    match cfg.journal with
    | None -> None
    | Some path ->
      let fp =
        Journal.fingerprint
          ~reduction:(Modelcheck.Reduce.to_string cfg.reduction)
          ~seeds:cfg.seeds ()
      in
      let w, entries =
        Engine.Journal.open_ Journal.codec ~path ~fingerprint:fp ~resume:cfg.resume
          ~flush_every:cfg.journal_every
      in
      List.iter
        (function
          | Journal.Positive { index; held } ->
            if held && index >= 0 && index < Array.length ts then
              prior_pos.(index) <- true
          | Journal.Negative { name; verdict } ->
            Hashtbl.replace prior_neg name verdict)
        entries;
      if entries <> [] then
        cfg.log
          (Fmt.str "conformance: resuming from journal %s (%d entries)" path
             (List.length entries));
      Some w
  in
  let journal_record e = match journal with Some w -> Engine.Journal.record w e | None -> () in
  let check_positive i t =
    if prior_pos.(i) then Trial.Holds
    else begin
      let v = Trial.check_positive t in
      journal_record
        (Journal.Positive
           { index = i; held = (match v with Trial.Holds -> true | _ -> false) });
      v
    end
  in
  (* Trials are independent, so they share the persistent pool (the
     engine's shared structures — the path arena, frozen instances — are
     domain-safe). *)
  let verdicts =
    Engine.Pool.map (Engine.Pool.get ()) ~workers:cfg.domains
      (fun i -> check_positive i ts.(i))
      (Array.init (Array.length ts) Fun.id)
  in
  let held = ref 0 in
  let violations = ref [] in
  Array.iteri
    (fun i verdict ->
      match verdict with
      | Trial.Holds -> incr held
      | Trial.Violated v ->
        cfg.log (Fmt.str "VIOLATED %a: %a" Trial.pp_positive ts.(i) Trial.pp_violation v);
        let shrunk = Shrink.positive ts.(i) in
        let v =
          match Trial.check_positive shrunk with
          | Trial.Violated v' -> v'
          | Trial.Holds -> v
        in
        cfg.log (Fmt.str "  shrunk to %a" Trial.pp_positive shrunk);
        violations := (shrunk, v) :: !violations)
    verdicts;
  let violations = List.rev !violations in
  (match cfg.emit_dir with
  | None -> ()
  | Some dir ->
    List.iteri
      (fun i (p, v) ->
        let name =
          Fmt.str "violation-%03d-%s-realizes-%s-%s" i
            (Engine.Model.to_string p.Trial.realizer)
            (Engine.Model.to_string p.Trial.realized)
            (Trial.violation_name v)
        in
        let file = Corpus.emit dir name (Corpus.positive ~name ~expect:(Corpus.Expect_violated v) p) in
        cfg.log (Fmt.str "  wrote %s" file))
      violations);
  let negatives =
    List.map
      (fun n ->
        let name = Trial.negative_name n in
        let verdict =
          match Hashtbl.find_opt prior_neg name with
          | Some v -> v
          | None ->
            let v =
              Trial.check_negative ~reduction:cfg.reduction
                ~config:Modelcheck.Explore.default_config n
            in
            journal_record (Journal.Negative { name; verdict = v });
            v
        in
        cfg.log (Fmt.str "negative: %s -> %a" name Trial.pp_negative_verdict verdict);
        { neg = n; verdict })
      (Trial.negatives ())
  in
  Option.iter Engine.Journal.close journal;
  (* The symbolic closure is part of conformance too: a contradictory fact
     base is reported as a finding, not an exception ending the sweep. *)
  let closure_contradiction =
    match Realization.Closure.derive () with
    | Ok _ -> None
    | Error c ->
      cfg.log (Fmt.str "closure: %s" (Realization.Closure.contradiction_to_string c));
      Some c
  in
  {
    positives_checked = Array.length ts;
    positives_held = !held;
    violations;
    negatives;
    closure_contradiction;
  }

let falsely_passed r =
  List.filter
    (fun nr -> match nr.verdict with Trial.Falsely_passed _ -> true | _ -> false)
    r.negatives

let skipped r =
  List.filter
    (fun nr -> match nr.verdict with Trial.Skipped _ -> true | _ -> false)
    r.negatives

let ok r =
  r.violations = [] && falsely_passed r = [] && r.closure_contradiction = None

let pp_report ppf r =
  Fmt.pf ppf "positive facts: %d/%d trials held, %d violated@."
    r.positives_held r.positives_checked
    (List.length r.violations);
  List.iter
    (fun (p, v) ->
      Fmt.pf ppf "  VIOLATED %a: %a@." Trial.pp_positive p Trial.pp_violation v)
    r.violations;
  let confirmed =
    List.length r.negatives - List.length (falsely_passed r) - List.length (skipped r)
  in
  Fmt.pf ppf
    "negative facts: %d confirmed, %d skipped, %d falsely passed@." confirmed
    (List.length (skipped r))
    (List.length (falsely_passed r));
  List.iter
    (fun nr ->
      Fmt.pf ppf "  %s -> %a@." (Trial.negative_name nr.neg) Trial.pp_negative_verdict
        nr.verdict)
    (skipped r @ falsely_passed r);
  (match r.closure_contradiction with
  | None -> ()
  | Some c -> Fmt.pf ppf "  %s@." (Realization.Closure.contradiction_to_string c));
  Fmt.pf ppf "conformance: %s@." (if ok r then "OK" else "DRIFT DETECTED")

open Engine
open Realization

type positive = {
  realizer : Model.t;
  realized : Model.t;
  level : Relation.level;
  source : string;
  inst_name : string;
  inst : Spp.Instance.t;
  entries : Activation.t list;
}

let of_fact (f : Facts.positive) ~inst_name inst entries =
  {
    realizer = f.Facts.realizer;
    realized = f.Facts.realized;
    level = f.Facts.level;
    source = f.Facts.source;
    inst_name;
    inst;
    entries;
  }

type violation =
  | Route_missing
  | Route_too_weak
  | Source_entry_invalid of int
  | Target_entry_invalid of int
  | Relation_violated
  | Transform_raised of string

let violation_name = function
  | Route_missing -> "route_missing"
  | Route_too_weak -> "route_too_weak"
  | Source_entry_invalid _ -> "source_entry_invalid"
  | Target_entry_invalid _ -> "target_entry_invalid"
  | Relation_violated -> "relation_violated"
  | Transform_raised _ -> "transform_raised"

let violation_of_name = function
  | "route_missing" -> Some Route_missing
  | "route_too_weak" -> Some Route_too_weak
  | "source_entry_invalid" -> Some (Source_entry_invalid (-1))
  | "target_entry_invalid" -> Some (Target_entry_invalid (-1))
  | "relation_violated" -> Some Relation_violated
  | "transform_raised" -> Some (Transform_raised "")
  | _ -> None

let same_violation a b = String.equal (violation_name a) (violation_name b)

let pp_violation ppf = function
  | Route_missing -> Fmt.string ppf "no constructive route for a proven fact"
  | Route_too_weak -> Fmt.string ppf "constructive route weaker than the fact"
  | Source_entry_invalid i -> Fmt.pf ppf "source entry %d illegal in the realized model" i
  | Target_entry_invalid i -> Fmt.pf ppf "transformed entry %d illegal in the realizer" i
  | Relation_violated -> Fmt.string ppf "trace relation violated"
  | Transform_raised e -> Fmt.pf ppf "transform raised: %s" e

type verdict = Holds | Violated of violation

(* The constructive route table is instance-independent; compute it once.
   [force_routes] must run before trials are checked from several domains
   because lazy forcing is not domain-safe. *)
let routes =
  lazy
    (List.concat_map
       (fun source ->
         List.filter_map
           (fun target ->
             if Model.equal source target then None
             else
               Option.map
                 (fun p -> ((source, target), p))
                 (Transform.route ~source ~target))
           Model.all)
       Model.all)

let force_routes () = ignore (Lazy.force routes)

let route ~source ~target =
  List.find_map
    (fun ((s, t), p) ->
      if Model.equal s source && Model.equal t target then Some p else None)
    (Lazy.force routes)

let pi_seq inst entries =
  Trace.assignments ~include_initial:true (Executor.run_entries inst entries)

let first_invalid inst model entries =
  let valid = Model.validates (View.spp inst) model in
  List.find_index (fun e -> not (valid e)) entries

let check_positive p =
  match route ~source:p.realized ~target:p.realizer with
  | None -> Violated Route_missing
  | Some path ->
    let level = Transform.path_level path in
    if Relation.compare level p.level < 0 then Violated Route_too_weak
    else begin
      match first_invalid p.inst p.realized p.entries with
      | Some i -> Violated (Source_entry_invalid i)
      | None -> (
        match Transform.apply_path path p.inst p.entries with
        | exception e -> Violated (Transform_raised (Printexc.to_string e))
        | transformed -> (
          match first_invalid p.inst p.realizer transformed with
          | Some i -> Violated (Target_entry_invalid i)
          | None ->
            if
              Seqcheck.check level ~original:(pi_seq p.inst p.entries)
                ~realized:(pi_seq p.inst transformed)
            then Holds
            else Violated Relation_violated))
    end

let pp_positive ppf p =
  Fmt.pf ppf "%a realizes %a (%s) [%s] on %s, %d-step schedule" Model.pp p.realizer
    Model.pp p.realized
    (Relation.to_string p.level)
    p.source p.inst_name (List.length p.entries)

(* ------------------------------------------------------------------ *)
(* Negative trials: the appendix witnesses, as in Modelcheck.Audit, but
   with structured skip/violation verdicts. *)

type negative_check =
  | Refutation of {
      inst_name : string;
      inst : Spp.Instance.t;
      witness : Activation.t list;
      level : Relation.level;
      termination : Modelcheck.Refute.termination;
    }
  | Separation of {
      inst_name : string;
      inst : Spp.Instance.t;
      oscillates_in : Model.t;
      scripted : (Activation.t list * Activation.t list) option;
    }

type negative = { fact : Facts.negative; check : negative_check }

let model s = Option.get (Model.of_string s)

let poll1 inst c =
  let v = Spp.Gadgets.node inst c in
  Activation.single v
    (List.map
       (fun ch -> Activation.read ~count:(Activation.Finite 1) ch)
       ((View.spp inst).required v))

let poll_all inst c = Activation.poll_all (View.spp inst) (Spp.Gadgets.node inst c)

let why_prefix (f : Facts.negative) p =
  String.length f.Facts.why >= String.length p
  && String.sub f.Facts.why 0 (String.length p) = p

let negatives () =
  List.map
    (fun (f : Facts.negative) ->
      if why_prefix f "Thm. 3.8" then
        {
          fact = f;
          check =
            Separation
              {
                inst_name = "DISAGREE";
                inst = Spp.Gadgets.disagree;
                oscillates_in = model "R1O";
                scripted = None;
              };
        }
      else if why_prefix f "Thm. 3.9" then begin
        (* FIG6 oscillates in REO/REF: the scripted Ex. A.2 schedule beats
           re-deriving a witness from the (large) REO state space. *)
        let inst = Spp.Gadgets.fig6 in
        let prefix =
          List.map (poll1 inst)
            [ 'd'; 'x'; 'a'; 'u'; 'v'; 'y'; 'a'; 'u'; 'v'; 'z'; 'a'; 'v'; 'u' ]
        in
        let cycle = List.map (poll1 inst) [ 'v'; 'u'; 'a'; 'x'; 'y'; 'z'; 'd' ] in
        {
          fact = f;
          check =
            Separation
              {
                inst_name = "FIG6";
                inst;
                oscillates_in = f.Facts.target;
                scripted = Some (prefix, cycle);
              };
        }
      end
      else if why_prefix f "Prop. 3.10" then
        let inst = Spp.Gadgets.fig7 in
        {
          fact = f;
          check =
            Refutation
              {
                inst_name = "FIG7";
                inst;
                witness =
                  List.map (poll1 inst)
                    [ 'd'; 'b'; 'u'; 'v'; 'a'; 'u'; 'v'; 's'; 's'; 's' ];
                level = Relation.Exact;
                termination = Modelcheck.Refute.Forever;
              };
        }
      else if why_prefix f "Prop. 3.11" then
        let inst = Spp.Gadgets.fig8 in
        {
          fact = f;
          check =
            Refutation
              {
                inst_name = "FIG8";
                inst;
                witness = List.map (poll_all inst) [ 'd'; 'a'; 'u'; 'b'; 'u'; 's' ];
                level = Relation.Repetition;
                termination = Modelcheck.Refute.Prefix;
              };
        }
      else if why_prefix f "Prop. 3.12" || why_prefix f "Prop. 3.13" then
        (* The same Ex. A.5 execution, written in the target model's entry
           shape: poll-all under REA (3.12), one-message reads of every
           channel under REO (3.13) — each channel holds at most one message
           at its read point, so the two induce the same trace. *)
        let inst = Spp.Gadgets.fig9 in
        let entry = if why_prefix f "Prop. 3.12" then poll_all inst else poll1 inst in
        {
          fact = f;
          check =
            Refutation
              {
                inst_name = "FIG9";
                inst;
                witness = List.map entry [ 'd'; 'b'; 'c'; 'x'; 's'; 'a'; 'c'; 's' ];
                level = Relation.Exact;
                termination = Modelcheck.Refute.Prefix;
              };
        }
      else
        invalid_arg ("Conformance.Trial.negatives: no check for " ^ f.Facts.why))
    Facts.negatives

type negative_verdict = Confirmed | Skipped of string | Falsely_passed of string

let check_negative ?(reduction = Modelcheck.Reduce.No_reduction) ~config neg =
  let f = neg.fact in
  match neg.check with
  | Refutation r -> (
    match first_invalid r.inst f.Facts.target r.witness with
    | Some i ->
      Falsely_passed (Fmt.str "witness entry %d no longer legal in the target model" i)
    | None -> (
      let target = pi_seq r.inst r.witness in
      match
        Modelcheck.Refute.realizable ~config ~termination:r.termination r.inst
          f.Facts.non_realizer r.level ~target
      with
      | Modelcheck.Refute.Impossible -> Confirmed
      | Modelcheck.Refute.Realizable entries ->
        Falsely_passed
          (Fmt.str "a %d-step realizing schedule exists" (List.length entries))
      | Modelcheck.Refute.Unknown reason -> Skipped reason))
  | Separation s -> (
    let can_oscillate =
      match s.scripted with
      | Some (prefix, cycle) ->
        Modelcheck.Oscillation.verify_witness ~max_steps:500 s.inst s.oscillates_in
          { prefix; cycle }
      | None -> (
        match Modelcheck.Oscillation.analyze ~reduction ~config s.inst s.oscillates_in with
        | Modelcheck.Oscillation.Oscillates w ->
          Modelcheck.Oscillation.verify_witness s.inst s.oscillates_in w
        | _ -> false)
    in
    if not can_oscillate then
      Falsely_passed
        (Fmt.str "lost the oscillation witness of %a on %s" Model.pp s.oscillates_in
           s.inst_name)
    else
      match Modelcheck.Oscillation.analyze ~reduction ~config s.inst f.Facts.non_realizer with
      | Modelcheck.Oscillation.Converges -> Confirmed
      | Modelcheck.Oscillation.Oscillates _ ->
        Falsely_passed
          (Fmt.str "%a oscillates on %s after all" Model.pp f.Facts.non_realizer
             s.inst_name)
      | Modelcheck.Oscillation.Unknown reason -> Skipped reason)

let negative_name neg =
  let f = neg.fact in
  Fmt.str "%s cannot realize %s at %s [%s]"
    (Model.to_string f.Facts.non_realizer)
    (Model.to_string f.Facts.target)
    (Relation.to_string f.Facts.at_level)
    f.Facts.why

let pp_negative_verdict ppf = function
  | Confirmed -> Fmt.string ppf "confirmed"
  | Skipped r -> Fmt.pf ppf "skipped (%s)" r
  | Falsely_passed r -> Fmt.pf ppf "FALSELY PASSED (%s)" r

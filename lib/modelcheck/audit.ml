open Engine
open Realization

type status = Verified | Failed of string

type entry = { fact : string; evidence : string; status : status }

let model s = Option.get (Model.of_string s)

let pi_seq inst entries =
  Trace.assignments ~include_initial:true (Executor.run_entries inst entries)

let check_positive (f : Facts.positive) ~seeds =
  let name =
    Fmt.str "%a realizes %a (%s) [%s]" Model.pp f.Facts.realizer Model.pp
      f.Facts.realized
      (Relation.to_string f.Facts.level)
      f.Facts.source
  in
  match Transform.route ~source:f.Facts.realized ~target:f.Facts.realizer with
  | None -> { fact = name; evidence = "constructive route"; status = Failed "no route" }
  | Some path ->
    let level = Transform.path_level path in
    if Relation.compare level f.Facts.level < 0 then
      { fact = name; evidence = "constructive route"; status = Failed "route too weak" }
    else begin
      let ok = ref true in
      List.iter
        (fun inst ->
          List.iter
            (fun seed ->
              if !ok then begin
                let entries =
                  Scheduler.prefix 25 (Scheduler.random inst f.Facts.realized ~seed)
                in
                let transformed = Transform.apply_path path inst entries in
                if
                  not
                    (List.for_all (Model.validates (View.spp inst) f.Facts.realizer) transformed
                    && Seqcheck.check f.Facts.level ~original:(pi_seq inst entries)
                         ~realized:(pi_seq inst transformed))
                then ok := false
              end)
            seeds)
        [ Spp.Gadgets.disagree; Spp.Gadgets.fig6 ];
      {
        fact = name;
        evidence =
          Fmt.str "%d-rule transform checked on DISAGREE and FIG6" (List.length path);
        status = (if !ok then Verified else Failed "relation violated on a schedule");
      }
    end

let positives ?(seeds = [ 1; 2 ]) () =
  List.map (check_positive ~seeds) Facts.positives

(* Negative facts: map each to its semantic witness. *)
let check_oscillation_separation ~gadget ~gadget_name ~oscillates_in ?scripted
    (f : Facts.negative) =
  let name =
    Fmt.str "%a cannot preserve oscillations of %a [%s]" Model.pp f.Facts.non_realizer
      Model.pp f.Facts.target f.Facts.why
  in
  let can_oscillate =
    match scripted with
    | Some (prefix, cycle) ->
      (* A concrete fair oscillation schedule beats re-deriving one
         exhaustively (FIG6's full REO state space takes minutes). *)
      Oscillation.verify_witness ~max_steps:500 gadget oscillates_in { prefix; cycle }
    | None -> (
      match Oscillation.analyze gadget oscillates_in with
      | Oscillation.Oscillates w -> Oscillation.verify_witness gadget oscillates_in w
      | _ -> false)
  in
  let cannot =
    match Oscillation.analyze gadget f.Facts.non_realizer with
    | Oscillation.Converges -> true
    | _ -> false
  in
  {
    fact = name;
    evidence =
      Fmt.str "%s oscillates in %a (verified witness) but provably converges in %a"
        gadget_name Model.pp oscillates_in Model.pp f.Facts.non_realizer;
    status =
      (if can_oscillate && cannot then Verified
       else Failed (Fmt.str "oscillation %b / convergence %b" can_oscillate cannot));
  }

let poll1 inst c =
  let v = Spp.Gadgets.node inst c in
  Activation.single v
    (List.map
       (fun ch -> Activation.read ~count:(Activation.Finite 1) ch)
       ((View.spp inst).required v))

let check_refutation ~gadget ~entries ~level ~termination (f : Facts.negative) =
  let name =
    Fmt.str "%a cannot realize %a at %s [%s]" Model.pp f.Facts.non_realizer Model.pp
      f.Facts.target
      (Relation.to_string f.Facts.at_level)
      f.Facts.why
  in
  let target = pi_seq gadget entries in
  let r = Refute.realizable ~termination gadget f.Facts.non_realizer level ~target in
  {
    fact = name;
    evidence = "exhaustive realizability refutation on the appendix execution";
    status =
      (match r with
      | Refute.Impossible -> Verified
      | Refute.Realizable _ -> Failed "a realizing schedule exists"
      | Refute.Unknown reason -> Failed reason);
  }

let negatives () =
  List.map
    (fun (f : Facts.negative) ->
      match (f.Facts.why, Model.to_string f.Facts.target) with
      | w, _ when String.length w >= 8 && String.sub w 0 8 = "Thm. 3.8" ->
        check_oscillation_separation ~gadget:Spp.Gadgets.disagree ~gadget_name:"DISAGREE"
          ~oscillates_in:(model "R1O") f
      | w, _ when String.length w >= 8 && String.sub w 0 8 = "Thm. 3.9" ->
        (* FIG6 oscillates in REO and REF: use the paper's scripted
           schedule (Ex. A.2) as the witness. *)
        let inst = Spp.Gadgets.fig6 in
        let prefix =
          List.map (poll1 inst)
            [ 'd'; 'x'; 'a'; 'u'; 'v'; 'y'; 'a'; 'u'; 'v'; 'z'; 'a'; 'v'; 'u' ]
        in
        let cycle = List.map (poll1 inst) [ 'v'; 'u'; 'a'; 'x'; 'y'; 'z'; 'd' ] in
        check_oscillation_separation ~gadget:inst ~gadget_name:"FIG6"
          ~oscillates_in:f.Facts.target ~scripted:(prefix, cycle) f
      | w, _ when String.length w >= 10 && String.sub w 0 10 = "Prop. 3.10" ->
        let inst = Spp.Gadgets.fig7 in
        check_refutation ~gadget:inst
          ~entries:(List.map (poll1 inst) [ 'd'; 'b'; 'u'; 'v'; 'a'; 'u'; 'v'; 's'; 's'; 's' ])
          ~level:Relation.Exact ~termination:Refute.Forever f
      | w, _ when String.length w >= 10 && String.sub w 0 10 = "Prop. 3.11" ->
        let inst = Spp.Gadgets.fig8 in
        check_refutation ~gadget:inst
          ~entries:
            (List.map
               (fun c -> Activation.poll_all (View.spp inst) (Spp.Gadgets.node inst c))
               [ 'd'; 'a'; 'u'; 'b'; 'u'; 's' ])
          ~level:Relation.Repetition ~termination:Refute.Prefix f
      | w, _ when String.length w >= 10 && String.sub w 0 10 = "Prop. 3.12" ->
        let inst = Spp.Gadgets.fig9 in
        check_refutation ~gadget:inst
          ~entries:
            (List.map
               (fun c -> Activation.poll_all (View.spp inst) (Spp.Gadgets.node inst c))
               [ 'd'; 'b'; 'c'; 'x'; 's'; 'a'; 'c'; 's' ])
          ~level:Relation.Exact ~termination:Refute.Prefix f
      | w, _ when String.length w >= 10 && String.sub w 0 10 = "Prop. 3.13" ->
        (* Same execution, which is also an REO sequence; refute exactness
           in R1S. *)
        let inst = Spp.Gadgets.fig9 in
        check_refutation ~gadget:inst
          ~entries:
            (List.map
               (fun c -> Activation.poll_all (View.spp inst) (Spp.Gadgets.node inst c))
               [ 'd'; 'b'; 'c'; 'x'; 's'; 'a'; 'c'; 's' ])
          ~level:Relation.Exact ~termination:Refute.Prefix f
      | w, _ ->
        {
          fact = w;
          evidence = "";
          status = Failed (Fmt.str "no audit procedure for %s" w);
        })
    Facts.negatives

let summary entries =
  let count p = List.length (List.filter p entries) in
  let verified = count (fun e -> e.status = Verified) in
  let failed = count (fun e -> match e.status with Failed _ -> true | _ -> false) in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Fmt.str "%d facts audited: %d verified, %d failed\n" (List.length entries) verified
       failed);
  List.iter
    (fun e ->
      match e.status with
      | Verified -> ()
      | Failed reason -> Buffer.add_string buf (Fmt.str "  FAILED  %s (%s)\n" e.fact reason))
    entries;
  Buffer.contents buf

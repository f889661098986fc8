(* Committed counterexample corpus: minimal divergent / model-separating
   gadgets found by the hunt, serialized as self-contained JSON (schema
   "commrouting/hunt/v1") and replayed deterministically by @hunt-smoke on
   every test run.  Instance serialization, the field readers and the file
   codec are the conformance corpus's, so node references are by name and
   survive id renumbering. *)

module Json = Engine.Metrics.Json
module C = Conformance.Corpus

let schema = "commrouting/hunt/v1"

type kind =
  | Divergence of { model : Engine.Model.t }
  | Separation of {
      oscillates_in : Engine.Model.t;
      converges_in : Engine.Model.t;
    }

type finding = {
  name : string;
  seed : int;
  descr : string;
  inst : Spp.Instance.t;
  kind : kind;
  channel_bound : int;
  max_states : int;
}

let kind_string = function
  | Divergence _ -> "divergence"
  | Separation _ -> "separation"

let pp_kind ppf = function
  | Divergence { model } ->
    Fmt.pf ppf "divergence: oscillates under %a" Engine.Model.pp model
  | Separation { oscillates_in; converges_in } ->
    Fmt.pf ppf "separation: oscillates under %a, converges under %a"
      Engine.Model.pp oscillates_in Engine.Model.pp converges_in

(* ------------------------------------------------------------------ *)
(* JSON *)

let ( let* ) = Result.bind

let to_json f =
  let kind_fields =
    match f.kind with
    | Divergence { model } ->
      [
        ("kind", Json.Str "divergence");
        ("oscillates_in", Json.Str (Engine.Model.to_string model));
      ]
    | Separation { oscillates_in; converges_in } ->
      [
        ("kind", Json.Str "separation");
        ("oscillates_in", Json.Str (Engine.Model.to_string oscillates_in));
        ("converges_in", Json.Str (Engine.Model.to_string converges_in));
      ]
  in
  Json.Obj
    ([
       ("schema", Json.Str schema);
       ("name", Json.Str f.name);
       ("seed", Json.Num (float_of_int f.seed));
       ("descr", Json.Str f.descr);
     ]
    @ kind_fields
    @ [
        ("instance", C.instance_to_json f.inst);
        ("channel_bound", Json.Num (float_of_int f.channel_bound));
        ("max_states", Json.Num (float_of_int f.max_states));
      ])

let of_json j =
  let* s = C.str_field "schema" j in
  if s <> schema then Error (Fmt.str "unknown schema %S (want %S)" s schema)
  else
    let* name = C.str_field "name" j in
    let* seed = C.int_field "seed" j in
    let* descr = C.str_field "descr" j in
    let* kind_s = C.str_field "kind" j in
    let* kind =
      match kind_s with
      | "divergence" ->
        let* model = C.model_field "oscillates_in" j in
        Ok (Divergence { model })
      | "separation" ->
        let* oscillates_in = C.model_field "oscillates_in" j in
        let* converges_in = C.model_field "converges_in" j in
        Ok (Separation { oscillates_in; converges_in })
      | k -> Error (Fmt.str "unknown kind %S" k)
    in
    let* inst_j =
      match Json.member "instance" j with
      | Some v -> Ok v
      | None -> Error "missing field \"instance\""
    in
    let* inst = C.instance_of_json inst_j in
    let* channel_bound = C.int_field "channel_bound" j in
    let* max_states = C.int_field "max_states" j in
    Ok { name; seed; descr; inst; kind; channel_bound; max_states }

(* ------------------------------------------------------------------ *)
(* Replay *)

type outcome = C.outcome = { name : string; ok : bool; detail : string }

let analyze ~config inst model =
  Modelcheck.Oscillation.analyze ~config ~domains:1 inst model

let replay f =
  let config =
    {
      Modelcheck.Explore.channel_bound = f.channel_bound;
      max_states = f.max_states;
    }
  in
  match f.kind with
  | Divergence { model } -> (
    match analyze ~config f.inst model with
    | Modelcheck.Oscillation.Oscillates _ ->
      {
        name = f.name;
        ok = true;
        detail = Fmt.str "oscillates under %a" Engine.Model.pp model;
      }
    | v ->
      {
        name = f.name;
        ok = false;
        detail =
          Fmt.str "expected oscillation under %a, got %s" Engine.Model.pp model
            (Modelcheck.Oscillation.verdict_name v);
      })
  | Separation { oscillates_in; converges_in } -> (
    match
      ( analyze ~config f.inst oscillates_in,
        analyze ~config f.inst converges_in )
    with
    | Modelcheck.Oscillation.Oscillates _, Modelcheck.Oscillation.Converges ->
      {
        name = f.name;
        ok = true;
        detail =
          Fmt.str "oscillates under %a, converges under %a" Engine.Model.pp
            oscillates_in Engine.Model.pp converges_in;
      }
    | vx, vy ->
      {
        name = f.name;
        ok = false;
        detail =
          Fmt.str "expected oscillates/%a converges/%a, got %s/%s"
            Engine.Model.pp oscillates_in Engine.Model.pp converges_in
            (Modelcheck.Oscillation.verdict_name vx)
            (Modelcheck.Oscillation.verdict_name vy);
      })

include C.File (struct
  type t = finding

  let to_json = to_json
  let of_json = of_json
  let replay = replay
end)

(* The hunt's per-candidate progress journal: the codec and fingerprint of
   an {!Engine.Journal}, which owns the file format, the decode rule and
   the crash tolerance.  One record per finished candidate, so a SIGKILLed
   hunt resumes at the first candidate without a complete record instead
   of re-exploring.  Records carry the full outcome — skip reason,
   per-model verdicts, and the finding's entire JSON — so a resumed run
   reconstructs its artifact without re-spending any explorer budget. *)

module Json = Engine.Metrics.Json

let magic = "commrouting/hunt-journal/v1"

type entry =
  | Skipped of { name : string; reason : string }
  | Explored of {
      name : string;
      verdicts : (Engine.Model.t * string) list;
      finding : Corpus.finding option;
    }

let fingerprint ~seeds ~budget ~models ~channel_bound ~max_states () =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|seeds=%d|budget=%s|models=%s|bound=%d|states=%d"
          magic seeds budget
          (String.concat "," (List.map Engine.Model.to_string models))
          channel_bound max_states))

let verdicts_string vs =
  String.concat ","
    (List.map
       (fun (m, v) -> Engine.Model.to_string m ^ "=" ^ v)
       vs)

let verdicts_of_string s =
  if s = "" then Some []
  else
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | kv :: rest -> (
        match String.index_opt kv '=' with
        | None -> None
        | Some i -> (
          let m = String.sub kv 0 i in
          let v = String.sub kv (i + 1) (String.length kv - i - 1) in
          match Engine.Model.of_string m with
          | Some m -> go ((m, v) :: acc) rest
          | None -> None))
    in
    go [] (String.split_on_char ',' s)

let encode = function
  | Skipped { name; reason } -> [ "S"; name; reason ]
  | Explored { name; verdicts; finding = None } ->
    [ "E"; name; verdicts_string verdicts ]
  | Explored { name; verdicts; finding = Some f } ->
    [ "F"; name; verdicts_string verdicts; Json.to_string (Corpus.to_json f) ]

let decode = function
  | [ "S"; name; reason ] -> Some (Skipped { name; reason })
  | [ "E"; name; vs ] ->
    Option.map
      (fun verdicts -> Explored { name; verdicts; finding = None })
      (verdicts_of_string vs)
  | [ "F"; name; vs; fj ] -> (
    match (verdicts_of_string vs, Json.parse fj) with
    | Some verdicts, Ok j -> (
      match Corpus.of_json j with
      | Ok f -> Some (Explored { name; verdicts; finding = Some f })
      | Error _ -> None)
    | _ -> None)
  | _ -> None

let codec = { Engine.Journal.magic; encode; decode }

let entry_name = function
  | Skipped { name; _ } | Explored { name; _ } -> name

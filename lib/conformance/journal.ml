type entry =
  | Positive of { index : int; held : bool }
  | Negative of { name : string; verdict : Trial.negative_verdict }

let magic = "commrouting/journal/v1"

let fingerprint ?(reduction = "none") ~seeds () =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|seeds=%d|reduction=%s|positives=%d|negatives=%d" magic seeds
          reduction
          (List.length Realization.Facts.positives)
          (List.length Realization.Facts.negatives)))

let encode = function
  | Positive { index; held } ->
    [ "P"; string_of_int index; (if held then "H" else "V") ]
  | Negative { name; verdict } -> (
    match verdict with
    | Trial.Confirmed -> [ "N"; name; "C" ]
    | Trial.Skipped s -> [ "N"; name; "S"; s ]
    | Trial.Falsely_passed s -> [ "N"; name; "F"; s ])

let decode = function
  | [ "P"; idx; held ] -> (
    match (int_of_string_opt idx, held) with
    | Some index, "H" -> Some (Positive { index; held = true })
    | Some index, "V" -> Some (Positive { index; held = false })
    | _ -> None)
  | [ "N"; name; "C" ] -> Some (Negative { name; verdict = Trial.Confirmed })
  | [ "N"; name; "S"; detail ] ->
    Some (Negative { name; verdict = Trial.Skipped detail })
  | [ "N"; name; "F"; detail ] ->
    Some (Negative { name; verdict = Trial.Falsely_passed detail })
  | _ -> None

let codec = { Engine.Journal.magic; encode; decode }

type reliability = Reliable | Unreliable
type neighbors = N_one | N_multi | N_every
type messages = M_one | M_some | M_forced | M_all
type t = { rel : reliability; nbr : neighbors; msg : messages }

let make rel nbr msg = { rel; nbr; msg }

let all =
  (* Row order of Figures 3 and 4: for each reliability, messages dimension
     major (O, S, F, A), neighbors minor (1, M, E). *)
  List.concat_map
    (fun rel ->
      List.concat_map
        (fun msg -> List.map (fun nbr -> { rel; nbr; msg }) [ N_one; N_multi; N_every ])
        [ M_one; M_some; M_forced; M_all ])
    [ Reliable; Unreliable ]

let reliable = List.filter (fun m -> m.rel = Reliable) all
let unreliable = List.filter (fun m -> m.rel = Unreliable) all

let to_string m =
  let r = match m.rel with Reliable -> "R" | Unreliable -> "U" in
  let n = match m.nbr with N_one -> "1" | N_multi -> "M" | N_every -> "E" in
  let y = match m.msg with M_one -> "O" | M_some -> "S" | M_forced -> "F" | M_all -> "A" in
  r ^ n ^ y

let of_string s =
  (* Accept surrounding whitespace and any case — model names arrive from
     CLI flags and env vars, so "rms" and " R1O " must work — but never
     raise: anything that is not a 3-letter model name is None. *)
  let s = String.uppercase_ascii (String.trim s) in
  if String.length s <> 3 then None
  else
    let rel =
      match s.[0] with 'R' -> Some Reliable | 'U' -> Some Unreliable | _ -> None
    in
    let nbr =
      match s.[1] with
      | '1' -> Some N_one
      | 'M' -> Some N_multi
      | 'E' -> Some N_every
      | _ -> None
    in
    let msg =
      match s.[2] with
      | 'O' -> Some M_one
      | 'S' -> Some M_some
      | 'F' -> Some M_forced
      | 'A' -> Some M_all
      | _ -> None
    in
    match (rel, nbr, msg) with
    | Some rel, Some nbr, Some msg -> Some { rel; nbr; msg }
    | _ -> None

let pp ppf m = Fmt.string ppf (to_string m)
let equal (a : t) b = a = b
let compare (a : t) b = compare a b
let is_polling m = m.msg = M_all
let is_message_passing m = m.msg = M_one
let is_queueing m = m.nbr = N_multi && m.msg = M_some

let rel_includes a b = match (a, b) with
  | Unreliable, _ | Reliable, Reliable -> true
  | Reliable, Unreliable -> false

let nbr_includes a b =
  match (a, b) with
  | N_multi, _ -> true
  | (N_one | N_every), _ -> a = b

let msg_includes a b =
  match (a, b) with
  | M_some, _ -> true
  | M_forced, (M_one | M_all | M_forced) -> true
  | M_forced, M_some -> false
  | (M_one | M_all), _ -> a = b

let includes a b =
  rel_includes a.rel b.rel && nbr_includes a.nbr b.nbr && msg_includes a.msg b.msg

(* The neighbors and messages dimensions for one active node, given the
   reads whose receiver it is and the channels it must read. *)
let node_ok ~required m (reads : Activation.read list) =
  let nbr_ok =
    match m.nbr with
    | N_one ->
      (* A node with no required channel (the SPP destination) activates
         with no reads as the canonical form of its no-op processing. *)
      List.length reads = 1 || (required = [] && reads = [])
    | N_multi -> true
    | N_every ->
      let sort = List.sort Channel.compare_id in
      sort required = sort (List.map (fun (r : Activation.read) -> r.chan) reads)
  in
  nbr_ok
  && List.for_all
       (fun (r : Activation.read) ->
         (match (m.msg, r.count) with
         | M_one, Activation.Finite 1 | M_all, Activation.All | M_some, _ -> true
         | M_one, _ | M_all, _ -> false
         | M_forced, Activation.Finite n -> n >= 1
         | M_forced, Activation.All -> true)
         && (m.rel = Unreliable || Activation.IntSet.is_empty r.drops))
       reads

let validates ?model_of (view : View.t) m (a : Activation.t) =
  let model_of = Option.value model_of ~default:(fun _ -> m) in
  Activation.well_formed view a = []
  &&
  match a.active with
  | [ v ] -> node_ok ~required:(view.required v) (model_of v) a.reads
  | _ -> false

let validates_multi ?model_of (view : View.t) m (a : Activation.t) =
  let model_of = Option.value model_of ~default:(fun _ -> m) in
  Activation.well_formed view a = []
  && a.active <> []
  && List.for_all
       (fun v ->
         node_ok ~required:(view.required v) (model_of v)
           (List.filter (fun (r : Activation.read) -> r.chan.Channel.dst = v) a.reads))
       a.active

module IntSet = Set.Make (Int)

type count = Finite of int | All
type read = { chan : Channel.id; count : count; drops : IntSet.t }
type t = { active : int list; reads : read list }

let entry ~active ~reads = { active = List.sort_uniq compare active; reads }

let read ?(drops = []) ?(count = All) chan =
  { chan; count; drops = IntSet.of_list drops }

let single v reads = { active = [ v ]; reads }

let poll_all (view : View.t) v = single v (List.map read (view.required v))

type error =
  | Empty_active
  | Unknown_channel of Channel.id
  | Reader_not_active of Channel.id
  | Duplicate_channel of Channel.id
  | Negative_count of Channel.id
  | Bad_drops of Channel.id

let pp_error view ppf err =
  let pp_c = View.pp_channel view in
  match err with
  | Empty_active -> Fmt.string ppf "no active node"
  | Unknown_channel c -> Fmt.pf ppf "channel %a is not readable in this protocol instance" pp_c c
  | Reader_not_active c -> Fmt.pf ppf "receiver of %a is not active" pp_c c
  | Duplicate_channel c -> Fmt.pf ppf "channel %a read twice" pp_c c
  | Negative_count c -> Fmt.pf ppf "negative message count on %a" pp_c c
  | Bad_drops c -> Fmt.pf ppf "invalid drop set on %a" pp_c c

let well_formed (view : View.t) t =
  let errs = ref [] in
  let add e = errs := e :: !errs in
  if t.active = [] then add Empty_active;
  let seen = ref [] in
  List.iter
    (fun r ->
      let c = r.chan in
      if not (List.exists (Channel.equal_id c) (view.readable c.Channel.dst)) then
        add (Unknown_channel c);
      if not (List.mem c.Channel.dst t.active) then add (Reader_not_active c);
      if List.exists (Channel.equal_id c) !seen then add (Duplicate_channel c);
      seen := c :: !seen;
      (match r.count with
      | Finite n when n < 0 -> add (Negative_count c)
      | Finite _ | All -> ());
      (match r.count with
      | Finite 0 -> if not (IntSet.is_empty r.drops) then add (Bad_drops c)
      | Finite n ->
        if IntSet.exists (fun i -> i < 1 || i > n) r.drops then add (Bad_drops c)
      | All -> if IntSet.exists (fun i -> i < 1) r.drops then add (Bad_drops c)))
    t.reads;
  List.rev !errs

let require_well_formed ~who view t =
  match well_formed view t with
  | [] -> ()
  | e :: _ -> invalid_arg (Fmt.str "%s: %a" who (pp_error view) e)

let pp inst ppf t =
  let pp_read ppf r =
    let count =
      match r.count with All -> "all" | Finite n -> string_of_int n
    in
    Fmt.pf ppf "%a:%s%s" (Channel.pp_id inst) r.chan count
      (if IntSet.is_empty r.drops then ""
       else
         Fmt.str "\\{%a}" Fmt.(list ~sep:(any ", ") int) (IntSet.elements r.drops))
  in
  Fmt.pf ppf "({%a}, [%a])"
    Fmt.(list ~sep:(any ", ") string)
    (List.map (Spp.Instance.name inst) t.active)
    Fmt.(list ~sep:sp pp_read)
    t.reads

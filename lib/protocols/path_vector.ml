(* Path-vector SPP as an instance of the generic protocol interface.

   This is a thin adapter: the local state is exactly the per-node slice of
   the legacy [Engine.State] (chosen route [pi], last announced route [ann],
   last heard route per in-neighbor [rho]), messages are {!Spp.Arena} ids
   with epsilon as withdrawal, and [update] is the legacy
   [State.best_choice_id] fold verbatim — same rank comparison, same
   smaller-neighbor tie-break, same push-to-all-but-dest announcement rule.
   The parity suite pins [Gexplore.Make (Path_vector)] to the legacy
   explorer's verdicts and state counts on the paper's gadgets across all
   24 models, and its schedules, validators and timed runs to the SPP
   stack's.  Both explore through the same driver
   ({!Modelcheck.Explore.Driver}); the legacy modules remain the
   specialized hot path, and export policies, the POR reduction and
   checkpointing live only there.  The one difference between the two
   stacks' channel views is the destination under a 1 model: SPP lets it
   read the channels into it, this adapter gives it none. *)

open Spp

module IMap = Map.Make (Int)

let name = "path-vector"

type instance = Instance.t

let nodes = Instance.nodes
let node_name = Instance.name

(* The SPP view's required channels: the destination's inbox is untracked,
   and an empty list exempts it from read obligations.  Applied to [inst]
   alone, it builds the view once. *)
let in_channels inst = (Engine.View.spp inst).required

type local = {
  pi : Arena.id;
  ann : Arena.id;
  rho : Arena.id IMap.t; (* keyed by in-neighbor; absent = epsilon *)
}

let initial_local inst v =
  let pi = if v = Instance.dest inst then Instance.trivial_id inst else Arena.epsilon in
  { pi; ann = Arena.epsilon; rho = IMap.empty }

let equal_local a b =
  Arena.equal a.pi b.pi && Arena.equal a.ann b.ann
  && IMap.equal Arena.equal a.rho b.rho

let compare_local a b =
  let c = Arena.compare a.pi b.pi in
  if c <> 0 then c
  else
    let c = Arena.compare a.ann b.ann in
    if c <> 0 then c else IMap.compare Arena.compare a.rho b.rho

let local_digest v l =
  IMap.fold
    (fun u r acc -> acc lxor Engine.Mix.mix4 0x62 v u r)
    l.rho
    (Engine.Mix.mix3 0x60 v l.pi lxor Engine.Mix.mix3 0x61 v l.ann)

(* Divergence requires the chosen route to change along the fair cycle —
   the legacy oscillation criterion. *)
let observable _inst _v l = l.pi

let pp_msg inst ppf m = Instance.pp_path inst ppf (Arena.path m)

(* Only the newest kept message matters: it becomes the known route of the
   read channel (epsilon withdraws, i.e. removes the binding — the map
   normalization [equal_local] relies on). *)
let receive _inst _v l ~src kept =
  match List.rev kept with
  | [] -> l
  | newest :: _ ->
    let rho =
      if Arena.is_epsilon newest then IMap.remove src l.rho
      else IMap.add src newest l.rho
    in
    { l with rho }

let rho_of l u = match IMap.find_opt u l.rho with Some r -> r | None -> Arena.epsilon

(* [State.best_choice_id] on the local rho slice. *)
let best_choice_id inst l v =
  if v = Instance.dest inst then Instance.trivial_id inst
  else
    let best =
      List.fold_left
        (fun acc u ->
          let r = rho_of l u in
          if Arena.is_epsilon r then acc
          else
            match Instance.permitted_extension inst v r with
            | None -> acc
            | Some (pid, rank) ->
              (match acc with
              | Some (_, s, _) when s < rank -> acc
              | Some (_, s, w) when s = rank && w < u -> acc
              | _ -> Some (pid, rank, u)))
        None (Instance.neighbors inst v)
    in
    match best with None -> Arena.epsilon | Some (pid, _, _) -> pid

let update inst v l =
  let p = best_choice_id inst l v in
  let l = { l with pi = p } in
  if Arena.equal p l.ann then (l, [])
  else
    let dest = Instance.dest inst in
    let out =
      List.filter_map
        (fun u ->
          (* channels into the destination are not tracked *)
          if u = dest then None else Some (Engine.Channel.id ~src:v ~dst:u, p))
        (Instance.neighbors inst v)
    in
    ({ l with ann = p }, out)

let node_converged inst v l =
  let p = best_choice_id inst l v in
  Arena.equal p l.pi && Arena.equal p l.ann

let drains = true
let idempotent = true
let stuck_is_divergent = false

let relevant inst v r =
  (not (Arena.is_epsilon r)) && Instance.permitted_extension inst v r <> None

let project_msg inst ~dst r = if relevant inst dst r then r else Arena.epsilon

let project_local inst v l =
  let rho = IMap.filter (fun _ r -> relevant inst v r) l.rho in
  if rho == l.rho then l else { l with rho }

let pp_local inst _v ppf l =
  let pp_path = Instance.pp_path inst in
  Fmt.pf ppf "@[pi=%a ann=%a rho={%a}@]" pp_path (Arena.path l.pi) pp_path
    (Arena.path l.ann)
    Fmt.(
      list ~sep:(any ",") (fun ppf (u, r) ->
          Fmt.pf ppf "%s:%a" (Instance.name inst u) pp_path (Arena.path r)))
    (IMap.bindings l.rho)

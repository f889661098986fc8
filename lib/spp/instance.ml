(* Arena ids are dense small integers, so they hash to themselves. *)
module IdTbl = Hashtbl.Make (struct
  type t = Arena.id

  let equal = Arena.equal
  let hash = Arena.hash
end)

type t = {
  size : int;
  names : string array;
  dest : Path.node;
  adj : Path.node list array;
  ranked : (Path.t * int) list array;
      (* per node, sorted by rank then by path; the destination's entry is
         [([d], 0)] *)
  trivial : Arena.id; (* id of the trivial path [dest] *)
  rank_tbl : int IdTbl.t array;
      (* per node: permitted path id -> rank; read-only after [build] *)
  ext_tbl : (Arena.id * int) option IdTbl.t array;
      (* per node v: route id r -> (id of v·r, rank of v·r) for every
         permitted v·r.  The key determines the value (v·r is one path),
         so lookups answer "is this extension permitted, and how good is
         it" in O(1) on the engine's hottest operation.  Values are stored
         as the option the lookup returns, so a hit allocates nothing. *)
}

type error =
  | Bad_node of Path.node
  | Not_a_path of Path.node * Path.t
  | Not_simple of Path.node * Path.t
  | Rank_tie of Path.node * Path.t * Path.t
  | Dest_has_paths

let size t = t.size
let names t = t.names
let name t v = t.names.(v)

let find_node t s =
  let rec loop i =
    if i >= t.size then raise Not_found
    else if String.equal t.names.(i) s then i
    else loop (i + 1)
  in
  loop 0
let dest t = t.dest
let nodes t = List.init t.size Fun.id

let neighbors t v =
  if v < 0 || v >= t.size then invalid_arg "Instance.neighbors" else t.adj.(v)

let are_adjacent t u v = List.mem v t.adj.(u)

let edges t =
  List.concat_map
    (fun u -> List.filter_map (fun v -> if u < v then Some (u, v) else None) t.adj.(u))
    (nodes t)

let channels t =
  List.concat_map (fun u -> List.map (fun v -> (u, v)) t.adj.(u)) (nodes t)

let permitted t v = List.map fst t.ranked.(v)

let trivial_id t = t.trivial
let rank_id t v pid = IdTbl.find_opt t.rank_tbl.(v) pid

let rank t v p =
  if Array.length t.rank_tbl = 0 then
    (* validation-time fallback: tables not frozen yet *)
    List.find_map (fun (q, r) -> if Path.equal p q then Some r else None) t.ranked.(v)
  else rank_id t v (Arena.intern p)

let is_permitted t v p = rank t v p <> None

let permitted_extension t v rid =
  match IdTbl.find t.ext_tbl.(v) rid with o -> o | exception Not_found -> None

let all_permitted t =
  List.concat_map (fun v -> List.map (fun (p, r) -> (v, p, r)) t.ranked.(v)) (nodes t)

let pp_path t ppf p = Path.pp ~names:t.names ppf p

let pp_error t ppf = function
  | Bad_node v -> Fmt.pf ppf "node id %d out of range" v
  | Not_a_path (v, p) ->
    Fmt.pf ppf "%a is not a graph path from %s to the destination" (pp_path t) p
      (name t v)
  | Not_simple (v, p) -> Fmt.pf ppf "%a at %s is not simple" (pp_path t) p (name t v)
  | Rank_tie (v, p, q) ->
    Fmt.pf ppf "rank tie at %s between %a and %a with different next hops"
      (name t v) (pp_path t) p (pp_path t) q
  | Dest_has_paths -> Fmt.string ppf "destination given non-trivial permitted paths"

let is_graph_path t v p =
  match Path.to_nodes p with
  | [] -> false
  | first :: _ as ns ->
    let rec hops_ok = function
      | a :: (b :: _ as rest) -> are_adjacent t a b && hops_ok rest
      | [ last ] -> last = t.dest
      | [] -> false
    in
    first = v && hops_ok ns

let validate t =
  let errs = ref [] in
  let add e = errs := e :: !errs in
  let check_node v =
    if v = t.dest then begin
      match t.ranked.(v) with
      | [ (p, _) ] when Path.equal p (Path.of_nodes [ t.dest ]) -> ()
      | _ -> add Dest_has_paths
    end
    else begin
      List.iter
        (fun (p, _) ->
          if not (Path.is_simple p) then add (Not_simple (v, p));
          if not (is_graph_path t v p) then add (Not_a_path (v, p)))
        t.ranked.(v);
      (* Ties in rank are allowed only through the same next hop. *)
      let rec ties = function
        | (p, rp) :: ((q, rq) :: _ as rest) ->
          if rp = rq && Path.next_hop p <> Path.next_hop q then
            add (Rank_tie (v, p, q));
          ties rest
        | [ _ ] | [] -> ()
      in
      ties t.ranked.(v)
    end
  in
  List.iter check_node (nodes t);
  List.rev !errs

let build ~names ~dest ~edges ~ranked_of_node =
  let size = Array.length names in
  let check v = if v < 0 || v >= size then invalid_arg "Instance: node out of range" in
  check dest;
  let adj = Array.make size [] in
  List.iter
    (fun (u, v) ->
      check u;
      check v;
      if u = v then invalid_arg "Instance: self-loop";
      if not (List.mem v adj.(u)) then begin
        adj.(u) <- v :: adj.(u);
        adj.(v) <- u :: adj.(v)
      end)
    edges;
  Array.iteri (fun v ns -> adj.(v) <- List.sort_uniq compare ns) adj;
  let ranked = Array.make size [] in
  List.iter
    (fun (v, paths) ->
      check v;
      ranked.(v) <-
        List.sort (fun (p, r) (q, s) -> if r <> s then compare r s else Path.compare p q) paths)
    ranked_of_node;
  ranked.(dest) <- [ (Path.of_nodes [ dest ], 0) ];
  let t =
    {
      size;
      names;
      dest;
      adj;
      ranked;
      trivial = Arena.of_nodes [ dest ];
      rank_tbl = [||];
      ext_tbl = [||];
    }
  in
  match validate t with
  | [] ->
    (* Freeze the id-level lookup tables.  They are written only here and
       read-only afterwards, so sharing them across domains is safe. *)
    let rank_tbl = Array.init size (fun _ -> IdTbl.create 16) in
    let ext_tbl = Array.init size (fun _ -> IdTbl.create 16) in
    Array.iteri
      (fun v paths ->
        List.iter
          (fun (p, r) ->
            let pid = Arena.intern p in
            if not (IdTbl.mem rank_tbl.(v) pid) then IdTbl.add rank_tbl.(v) pid r;
            if not (Arena.is_epsilon (Arena.suffix pid)) then begin
              let tail = Arena.suffix pid in
              if not (IdTbl.mem ext_tbl.(v) tail) then
                IdTbl.add ext_tbl.(v) tail (Some (pid, r))
            end)
          paths)
      ranked;
    { t with rank_tbl; ext_tbl }
  | e :: _ -> invalid_arg (Fmt.str "Instance: %a" (pp_error t) e)

let make ~names ~dest ~edges ~permitted =
  let ranked_of_node =
    List.map
      (fun (v, paths) -> (v, List.mapi (fun i p -> (Path.of_nodes p, i)) paths))
      permitted
  in
  build ~names ~dest ~edges ~ranked_of_node

let of_ranked ~names ~dest ~edges ~ranked = build ~names ~dest ~edges ~ranked_of_node:ranked

let best t v candidates =
  let consider acc p =
    match rank t v p with
    | None -> acc
    | Some r ->
      (match acc with
      | None -> Some (p, r)
      | Some (q, s) ->
        if r < s then Some (p, r)
        else if r > s then acc
        else begin
          (* Equal rank: the SPP tie rule guarantees the same next hop; break
             deterministically. *)
          match (Path.next_hop p, Path.next_hop q) with
          | Some a, Some b when a <> b -> if a < b then Some (p, r) else acc
          | _ -> if Path.compare p q < 0 then Some (p, r) else acc
        end)
  in
  match List.fold_left consider None candidates with
  | None -> Path.epsilon
  | Some (p, _) -> p

let pp ppf t =
  Fmt.pf ppf "@[<v>SPP instance (%d nodes, dest %s)@," t.size (name t t.dest);
  List.iter
    (fun v ->
      if v <> t.dest then
        Fmt.pf ppf "  %s: neighbors {%a}; permitted %a@," (name t v)
          Fmt.(list ~sep:(any ", ") string)
          (List.map (name t) t.adj.(v))
          Fmt.(list ~sep:(any " > ") (fun ppf (p, _) -> pp_path t ppf p))
          t.ranked.(v))
    (nodes t);
  Fmt.pf ppf "@]"

type config = {
  nodes : int;
  extra_edges : int;
  max_paths_per_node : int;
  max_path_len : int;
  seed : int;
}

let default =
  { nodes = 6; extra_edges = 3; max_paths_per_node = 4; max_path_len = 4; seed = 42 }

let simple_paths_to_dest ~adj ~dest ~max_len v =
  let acc = ref [] in
  let rec explore path u len =
    if u = dest then acc := List.rev path :: !acc
    else if len < max_len then
      List.iter
        (fun w -> if not (List.mem w path) then explore (w :: path) w (len + 1))
        adj.(u)
  in
  explore [ v ] v 0;
  !acc

let random_graph rng ~nodes ~extra_edges =
  let adj = Array.make nodes [] in
  let add_edge u v =
    if u <> v && not (List.mem v adj.(u)) then begin
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v)
    end
  in
  (* Random spanning tree: attach each node to a random earlier node. *)
  for v = 1 to nodes - 1 do
    add_edge v (Random.State.int rng v)
  done;
  let attempts = ref 0 in
  let added = ref 0 in
  while !added < extra_edges && !attempts < extra_edges * 10 do
    incr attempts;
    let u = Random.State.int rng nodes and v = Random.State.int rng nodes in
    if u <> v && not (List.mem v adj.(u)) then begin
      add_edge u v;
      incr added
    end
  done;
  adj

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let take n l =
  let rec loop n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: loop (n - 1) rest
  in
  loop n l

let build ~order_paths cfg =
  if cfg.nodes < 2 then invalid_arg "Generator: need at least 2 nodes";
  let rng = Random.State.make [| cfg.seed |] in
  let dest = 0 in
  let adj = random_graph rng ~nodes:cfg.nodes ~extra_edges:cfg.extra_edges in
  let names =
    Array.init cfg.nodes (fun i -> if i = dest then "d" else Printf.sprintf "v%d" i)
  in
  let edges =
    List.concat
      (List.init cfg.nodes (fun u ->
           List.filter_map (fun v -> if u < v then Some (u, v) else None) adj.(u)))
  in
  let permitted =
    List.init (cfg.nodes - 1) (fun i ->
        let v = i + 1 in
        let all = simple_paths_to_dest ~adj ~dest ~max_len:cfg.max_path_len v in
        let chosen = take cfg.max_paths_per_node (shuffle rng all) in
        (* Guarantee non-emptiness when any path exists. *)
        let chosen = if chosen = [] then take 1 all else chosen in
        (v, order_paths rng chosen))
  in
  Instance.make ~names ~dest ~edges ~permitted

let instance cfg = build ~order_paths:(fun rng paths -> shuffle rng paths) cfg

(* Fully symmetric k-spoke instances around the destination: every spoke
   connects to d and to its clockwise ring neighbor.  With
   [prefer_neighbor] each spoke prefers the route through that neighbor
   over its direct route — the rotational generalization of DISAGREE
   (k = 2) — otherwise the direct route wins and the instance trivially
   converges.  Small and regular, it is the partial-order reduction tests'
   RING3. *)
let symmetric_ring ?(prefer_neighbor = true) k =
  if k < 2 then invalid_arg "Generator.symmetric_ring: need at least 2 spokes";
  let names =
    Array.init (k + 1) (fun i -> if i = 0 then "d" else Printf.sprintf "v%d" i)
  in
  let next v = (v mod k) + 1 in
  let edges =
    List.concat (List.init k (fun i -> [ (0, i + 1); (i + 1, next (i + 1)) ]))
  in
  let permitted =
    List.init k (fun i ->
        let v = i + 1 in
        let direct = [ v; 0 ] and via = [ v; next v; 0 ] in
        (v, if prefer_neighbor then [ via; direct ] else [ direct; via ]))
  in
  Instance.make ~names ~dest:0 ~edges ~permitted

let safe_instance cfg =
  build cfg ~order_paths:(fun _rng paths ->
      List.sort (fun p q -> compare (List.length p, p) (List.length q, q)) paths)

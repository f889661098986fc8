type id = { src : Spp.Path.node; dst : Spp.Path.node }

let id ~src ~dst = { src; dst }
let reverse c = { src = c.dst; dst = c.src }
(* Field by field with [Int.compare]: the order of polymorphic [compare]
   on the record, without a [caml_compare] call per [Map] step. *)
let compare_id (a : id) b =
  let c = Int.compare a.src b.src in
  if c <> 0 then c else Int.compare a.dst b.dst

let equal_id (a : id) b = Int.equal a.src b.src && Int.equal a.dst b.dst

let pp_id inst ppf c =
  Fmt.pf ppf "(%s,%s)" (Spp.Instance.name inst c.src) (Spp.Instance.name inst c.dst)

module Map = Map.Make (struct
  type t = id

  let compare = compare_id
end)

type contents = Spp.Arena.id list
type t = contents Map.t

let empty = Map.empty
let get t c = match Map.find c t with l -> l | exception Not_found -> []
let get_paths t c = List.map Spp.Arena.path (get t c)
let length t c = List.length (get t c)

let push t c msg =
  Map.update c (function None -> Some [ msg ] | Some l -> Some (l @ [ msg ])) t

let push_path t c p = push t c (Spp.Arena.intern p)

let drop_first t c i =
  if i <= 0 then t
  else
    let rec drop n = function
      | l when n = 0 -> l
      | [] -> []
      | _ :: rest -> drop (n - 1) rest
    in
    match drop i (get t c) with [] -> Map.remove c t | l -> Map.add c l t

let total_messages t = Map.fold (fun _ l acc -> acc + List.length l) t 0
let max_occupancy t = Map.fold (fun _ l acc -> max acc (List.length l)) t 0
let bindings = Map.bindings
let bindings_paths t = List.map (fun (c, l) -> (c, List.map Spp.Arena.path l)) (bindings t)

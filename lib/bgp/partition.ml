type t = {
  topo : Topology.t;
  shards : int;
  owner : int array;
  members : int array array; (* per shard, ascending node ids *)
  cut_edges : int;
}

let shards t = t.shards
let topology t = t.topo
let owner t v = t.owner.(v)
let members t s = Array.to_list t.members.(s)
let size_of t s = Array.length t.members.(s)
let cut_edges t = t.cut_edges

(* Walking the rows backwards and consing yields the pairs ascending. *)
let border t =
  let ids = (Topology.rows t.topo).Topology.ids in
  let acc = ref [] in
  for u = Array.length ids - 1 downto 0 do
    let row = ids.(u) in
    for i = Array.length row - 1 downto 0 do
      if t.owner.(u) <> t.owner.(row.(i)) then acc := (u, row.(i)) :: !acc
    done
  done;
  !acc

let cut_fraction t =
  let total = List.length (Topology.edges t.topo) in
  if total = 0 then 0.0 else float_of_int t.cut_edges /. float_of_int total

let imbalance t =
  let n = Topology.size t.topo in
  let ideal = float_of_int n /. float_of_int t.shards in
  let biggest = Array.fold_left (fun acc m -> max acc (Array.length m)) 0 t.members in
  float_of_int biggest /. ideal

(* A FIFO of ints that only grows: [pop] advances [head], [push] doubles
   the array when [tail] reaches its end. *)
type queue = { mutable items : int array; mutable head : int; mutable tail : int }

let queue capacity = { items = Array.make (max 1 capacity) 0; head = 0; tail = 0 }
let is_empty q = q.head = q.tail

let push q v =
  if q.tail = Array.length q.items then begin
    let bigger = Array.make (2 * q.tail) 0 in
    Array.blit q.items 0 bigger 0 q.tail;
    q.items <- bigger
  end;
  q.items.(q.tail) <- v;
  q.tail <- q.tail + 1

let pop q =
  let v = q.items.(q.head) in
  q.head <- q.head + 1;
  v

(* Lower [dist] to the BFS distance from [root] wherever that is shorter,
   with [q] as the BFS queue.  After the calls for roots r1..rk, [dist] is
   the multi-source distance from {r1..rk} (max_int where unreached): a
   node whose distance drops has a neighbour on its path from [root] whose
   distance drops too, so the walk never leaves the nodes that improve. *)
let relax ids root ~dist ~q =
  q.head <- 0;
  q.tail <- 0;
  dist.(root) <- 0;
  push q root;
  while not (is_empty q) do
    let u = pop q in
    let d = dist.(u) + 1 in
    let row = ids.(u) in
    for i = 0 to Array.length row - 1 do
      let v = row.(i) in
      if d < dist.(v) then begin
        dist.(v) <- d;
        push q v
      end
    done
  done

let make ?(seed = 0) ~shards topo =
  let n = Topology.size topo in
  if shards < 1 then invalid_arg "Partition.make: shards < 1";
  if shards > n then invalid_arg "Partition.make: more shards than nodes";
  let ids = (Topology.rows topo).Topology.ids in
  (* Farthest-point seeding: the first root is seed-selected; each further
     root maximizes BFS distance to the roots already chosen (unreached
     components count as infinitely far), ties broken by lowest id.  Only
     roots sit at distance 0 and a non-root always exists (shards <= n),
     so the strict maximum is never a root. *)
  let first = ((seed mod n) + n) mod n in
  let roots = Array.make shards first in
  let dist = Array.make n max_int and q = queue n in
  relax ids first ~dist ~q;
  for k = 2 to shards do
    let best = ref (-1) and best_d = ref (-1) in
    for v = 0 to n - 1 do
      let d = dist.(v) in
      if d > !best_d then begin
        best := v;
        best_d := d
      end
    done;
    roots.(k - 1) <- !best;
    if k < shards then relax ids !best ~dist ~q
  done;
  (* Balanced greedy BFS growth: repeatedly the smallest shard with a
     non-empty frontier claims the next node off its queue.  Nodes already
     claimed by another shard are dropped lazily.  If every frontier dries
     up while nodes remain (disconnected topology), the smallest shard is
     re-seeded with the lowest unassigned node. *)
  let owner = Array.make n (-1) in
  let sizes = Array.make shards 0 in
  let frontier = Array.init shards (fun _ -> queue (n / shards)) in
  let assigned = ref 0 in
  let claim s v =
    owner.(v) <- s;
    sizes.(s) <- sizes.(s) + 1;
    incr assigned;
    let row = ids.(v) in
    for i = 0 to Array.length row - 1 do
      if owner.(row.(i)) = -1 then push frontier.(s) row.(i)
    done
  in
  Array.iteri (fun s r -> claim s r) roots;
  let next_unassigned = ref 0 in
  while !assigned < n do
    (* Smallest shard with work; ties by shard id. *)
    let pick = ref (-1) in
    for s = shards - 1 downto 0 do
      if not (is_empty frontier.(s)) then
        if !pick = -1 || sizes.(s) <= sizes.(!pick) then pick := s
    done;
    match !pick with
    | -1 ->
      while owner.(!next_unassigned) <> -1 do
        incr next_unassigned
      done;
      let smallest = ref 0 in
      for s = 1 to shards - 1 do
        if sizes.(s) < sizes.(!smallest) then smallest := s
      done;
      claim !smallest !next_unassigned
    | s ->
      let v = pop frontier.(s) in
      if owner.(v) = -1 then claim s v
  done;
  let members = Array.init shards (fun s -> Array.make sizes.(s) 0) in
  let fill = Array.make shards 0 in
  let cut = ref 0 in
  for v = 0 to n - 1 do
    let s = owner.(v) in
    members.(s).(fill.(s)) <- v;
    fill.(s) <- fill.(s) + 1;
    (* each link counted once, from its lower end *)
    let row = ids.(v) in
    for i = 0 to Array.length row - 1 do
      if row.(i) > v && owner.(row.(i)) <> s then incr cut
    done
  done;
  { topo; shards; owner; members; cut_edges = !cut }

let pp ppf t =
  Fmt.pf ppf "@[<v>partition: %d shards over %d ASes@," t.shards (Topology.size t.topo);
  Array.iteri
    (fun s m -> Fmt.pf ppf "  shard %d: %d nodes@," s (Array.length m))
    t.members;
  Fmt.pf ppf "  cut: %d links (%.1f%%), imbalance %.2f@]" t.cut_edges
    (100.0 *. cut_fraction t) (imbalance t)

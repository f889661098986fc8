type id = int

(* One hash-consed cons cell per interned path.  [nodes] shares its tail
   with the [tail] path's [nodes], so materialization is O(1) and total
   storage is one cell per distinct (head, tail) pair. *)
type info = {
  head : Path.node; (* -1 for epsilon *)
  tail : id; (* epsilon for one-node paths *)
  len : int; (* number of edges, as in Path.length *)
  mask : int; (* bitset of member nodes < mask_overflow, else the overflow bit *)
  nodes : Path.node list;
}

let mask_overflow = 62
let bit v = if v >= 0 && v < mask_overflow then 1 lsl v else 1 lsl mask_overflow

let epsilon_info = { head = -1; tail = 0; len = 0; mask = 0; nodes = [] }
let epsilon = 0
let is_epsilon i = i = 0

(* Directory: id -> info, grown by doubling under [alloc_mu].  Readers get
   the array through [Atomic.get]; an id always reaches a reader through a
   happens-before edge from its interning (the stripe mutex, or whatever
   synchronization handed the id across domains), which ordered the
   directory write and any growth before the read. *)
let dir = Atomic.make (Array.make 1024 epsilon_info)
let next = ref 1
let alloc_mu = Mutex.create ()

let info i = (Atomic.get dir).(i)

(* Lock-striped intern table keyed by the packed (head, tail) pair.  The
   packing caps the arena at 2^40 paths and node ids at 2^22 — far beyond
   any instance this engine can explore. *)
let n_stripes = 64

let key ~head ~tail = (head lsl 40) lor tail

(* Many heads share one tail, and their keys differ only above bit 40;
   many tails share one head, and theirs differ only in the low bits.  The
   mix folds the high bits down and multiplies twice, so both spread: a
   key's stripe comes from bits 32-37 of the mix, its bucket from the low
   bits. *)
let mix k =
  let h = (k lxor (k lsr 32)) * 0x2545F4914F6CDD1D in
  let h = (h lxor (h lsr 29)) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land max_int

let stripe_of k = (mix k lsr 32) land (n_stripes - 1)

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = mix
end)

type stripe = { mu : Mutex.t; tbl : id Tbl.t }

let stripes =
  Array.init n_stripes (fun _ -> { mu = Mutex.create (); tbl = Tbl.create 256 })

let alloc inf =
  Mutex.lock alloc_mu;
  let i = !next in
  next := i + 1;
  let d = Atomic.get dir in
  let d =
    if i < Array.length d then d
    else begin
      let d' = Array.make (2 * Array.length d) epsilon_info in
      Array.blit d 0 d' 0 (Array.length d);
      Atomic.set dir d';
      d'
    end
  in
  d.(i) <- inf;
  Mutex.unlock alloc_mu;
  i

(* Intern the cons cell v·tail (tail already interned). *)
let cons v tail =
  let k = key ~head:v ~tail in
  let s = stripes.(stripe_of k) in
  Mutex.lock s.mu;
  match Tbl.find_opt s.tbl k with
  | Some i ->
    Mutex.unlock s.mu;
    i
  | None ->
    let ti = info tail in
    let inf =
      {
        head = v;
        tail;
        len = (if is_epsilon tail then 0 else ti.len + 1);
        mask = bit v lor ti.mask;
        nodes = v :: ti.nodes;
      }
    in
    let i = alloc inf in
    Tbl.add s.tbl k i;
    Mutex.unlock s.mu;
    i

let rec intern_nodes = function [] -> epsilon | v :: rest -> cons v (intern_nodes rest)

let of_nodes ns = intern_nodes ns
let intern p = intern_nodes (Path.to_nodes p)
let to_nodes i = (info i).nodes
let path i = Path.of_nodes (info i).nodes

let source i = if is_epsilon i then None else Some (info i).head

let destination i =
  if is_epsilon i then None
  else
    let rec last j = let inf = info j in if is_epsilon inf.tail then inf.head else last inf.tail in
    Some (last i)

let next_hop i =
  if is_epsilon i then None
  else
    let t = (info i).tail in
    if is_epsilon t then None else Some (info t).head

let length i = (info i).len

let extend v i =
  if is_epsilon i then invalid_arg "Arena.extend: cannot extend the empty path"
  else cons v i

let rec mem (v : int) = function [] -> false | u :: rest -> u = v || mem v rest

let contains v i =
  let inf = info i in
  if v >= 0 && v < mask_overflow then inf.mask land (1 lsl v) <> 0
  else inf.mask land (1 lsl mask_overflow) <> 0 && mem v inf.nodes

let suffix i =
  if is_epsilon i then invalid_arg "Arena.suffix: epsilon has no suffix"
  else (info i).tail

let equal (a : id) b = a = b
let compare (a : id) b = Stdlib.compare a b
let hash (i : id) = i

let compare_structural a b =
  if a = b then 0 else Path.compare (path a) (path b)

let size () =
  Mutex.lock alloc_mu;
  let n = !next in
  Mutex.unlock alloc_mu;
  n

let pp ~names ppf i = Path.pp ~names ppf (path i)
let to_string ~names i = Path.to_string ~names (path i)

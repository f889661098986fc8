module IMap = Map.Make (Int)
open Spp

(* Each component binding is hashed with a distinct tag and XOR-folded into
   a running digest, so single-binding updates adjust the digest in O(log n)
   instead of rehashing four full [bindings] lists per lookup.  XOR is its
   own inverse: removing a binding re-XORs the same value out.

   Since PR 2 the maps hold {!Spp.Arena.id}s, and the arena is canonical
   within the process: a given path has one id no matter which domain
   interned it.  The binding hashes therefore mix small integers (a
   splitmix-style finalizer, no allocation) instead of structurally hashing
   node lists, and the digest of a given state content is stable across
   domains — which is what lets the parallel explorer shard its intern
   table by digest. *)

let mix3 = Mix.mix3
let mix4 = Mix.mix4

let h_pi v (p : Arena.id) = mix3 0x50 v p
let h_rho (c : Channel.id) (p : Arena.id) = mix4 0x51 c.Channel.src c.Channel.dst p
let h_ann v (p : Arena.id) = mix3 0x52 v p

let h_chan (c : Channel.id) (msgs : Arena.id list) = Mix.h_chan c msgs

type t = {
  pi : Arena.id IMap.t; (* absent = epsilon *)
  rho : Arena.id Channel.Map.t; (* absent = epsilon *)
  ann : Arena.id IMap.t; (* absent = epsilon *)
  chans : Channel.t;
  dig_core : int; (* XOR of binding hashes of pi, rho, ann *)
  dig_chans : int; (* XOR of binding hashes of chans *)
  max_occ : int; (* longest queue in [chans]; 0 when all empty *)
}

let digest t = (t.dig_core lxor t.dig_chans) land max_int
let hash = digest
let max_occupancy t = t.max_occ

(* Digest and longest queue in one pass: both explorers check the channel
   bound on every generated successor, so the occupancy must be cached
   here — rescanning the whole map per edge (the old
   [Channel.max_occupancy] call) doubled the per-successor map walks. *)
let chans_digest_occ chans =
  Channel.Map.fold
    (fun c msgs (dig, occ) -> (dig lxor h_chan c msgs, max occ (List.length msgs)))
    chans (0, 0)

let initial inst =
  let d = Instance.dest inst in
  let p0 = Instance.trivial_id inst in
  {
    pi = IMap.singleton d p0;
    rho = Channel.Map.empty;
    ann = IMap.empty;
    chans = Channel.empty;
    dig_core = h_pi d p0;
    dig_chans = 0;
    max_occ = 0;
  }

(* [find] with a handler rather than [find_opt]: a hit allocates no
   [Some], and these lookups run several times per explored edge. *)
let find_i k m = match IMap.find k m with p -> p | exception Not_found -> Arena.epsilon

let pi_id t v = find_i v t.pi
let announced_id t v = find_i v t.ann

let rho_id t c =
  match Channel.Map.find c t.rho with p -> p | exception Not_found -> Arena.epsilon

let pi t v = Arena.path (pi_id t v)
let announced t v = Arena.path (announced_id t v)
let rho t c = Arena.path (rho_id t c)

let channels t = t.chans
let rho_bindings_id t = Channel.Map.bindings t.rho
let fold_rho_id f t acc = Channel.Map.fold f t.rho acc
let rho_bindings t = List.map (fun (c, p) -> (c, Arena.path p)) (rho_bindings_id t)

let assignment inst t = Assignment.make inst (fun v -> pi t v)

(* The digest delta of replacing a binding: XOR out the old hash (if the key
   was bound) and XOR in the new one (unless the new value is epsilon, which
   is not stored). *)
let delta_i h k p old =
  (match old with Some q -> h k q | None -> 0)
  lxor (if Arena.is_epsilon p then 0 else h k p)

let with_pi_id t v p =
  let dig_core = t.dig_core lxor delta_i h_pi v p (IMap.find_opt v t.pi) in
  let pi = if Arena.is_epsilon p then IMap.remove v t.pi else IMap.add v p t.pi in
  { t with pi; dig_core }

let with_rho_id t c p =
  let dig_core = t.dig_core lxor delta_i h_rho c p (Channel.Map.find_opt c t.rho) in
  let rho =
    if Arena.is_epsilon p then Channel.Map.remove c t.rho else Channel.Map.add c p t.rho
  in
  { t with rho; dig_core }

let with_announced_id t v p =
  let dig_core = t.dig_core lxor delta_i h_ann v p (IMap.find_opt v t.ann) in
  let ann = if Arena.is_epsilon p then IMap.remove v t.ann else IMap.add v p t.ann in
  { t with ann; dig_core }

let with_pi t v p = with_pi_id t v (Arena.intern p)
let with_rho t c p = with_rho_id t c (Arena.intern p)
let with_announced t v p = with_announced_id t v (Arena.intern p)

let with_channels t chans =
  if t.chans == chans then t
  else
    let dig_chans, max_occ = chans_digest_occ chans in
    { t with chans; dig_chans; max_occ }

(* Single-channel updates, the engine's hot path (every processed read and
   every announcement push of Step.apply): adjust the digest by XORing one
   channel's binding hash out and in — O(queue length), not O(total
   messages) — and maintain the occupancy cache incrementally.  A push can
   only raise the maximum (to the pushed queue's new length); a drop can
   only lower it, and only when the drained queue was (one of) the longest,
   in which case one rescan recomputes the exact value. *)

let push_channel t c msg =
  let old = Channel.get t.chans c in
  let h_old = h_chan c old in
  let h_new = mix3 0x54 h_old msg in
  let dig_chans =
    t.dig_chans lxor (match old with [] -> 0 | _ -> h_old) lxor h_new
  in
  {
    t with
    chans = Channel.Map.add c (old @ [ msg ]) t.chans;
    dig_chans;
    max_occ = max t.max_occ (List.length old + 1);
  }

let drop_first_channel t c i =
  if i <= 0 then t
  else
    match Channel.get t.chans c with
    | [] -> t
    | old ->
      let old_len = List.length old in
      let rec drop n l = if n = 0 then l else match l with [] -> [] | _ :: l -> drop (n - 1) l in
      let kept = drop i old in
      let chans =
        match kept with [] -> Channel.Map.remove c t.chans | _ -> Channel.Map.add c kept t.chans
      in
      let dig_chans =
        t.dig_chans lxor h_chan c old
        lxor (match kept with [] -> 0 | _ -> h_chan c kept)
      in
      let max_occ =
        if old_len < t.max_occ then t.max_occ else Channel.max_occupancy chans
      in
      { t with chans; dig_chans; max_occ }

(* Every mutator above either leaves [chans] untouched (max_occ carried
   over), recomputes from scratch ([with_channels]), or maintains the cache
   incrementally with a rescan on the only lowering case
   ([drop_first_channel] of a longest queue).  The test suite pins this
   audit with [debug_occupancy_ok] across random mutator sequences. *)
let debug_occupancy_ok t = t.max_occ = Channel.max_occupancy t.chans

(* The route the node would choose right now: one O(1) permitted-extension
   lookup per neighbor (Instance.ext_tbl), no interning, no list scans. *)
let best_choice_id inst t v =
  if v = Instance.dest inst then Instance.trivial_id inst
  else
    (* The best candidate so far is carried unboxed ([best] is epsilon
       while there is none): lowest rank first, then lowest neighbor. *)
    let rec go best best_rank best_u = function
      | [] -> best
      | u :: rest -> (
        let r = rho_id t (Channel.id ~src:u ~dst:v) in
        if Arena.is_epsilon r then go best best_rank best_u rest
        else
          match Instance.permitted_extension inst v r with
          | Some (pid, rank)
            when Arena.is_epsilon best || rank < best_rank
                 || (rank = best_rank && u <= best_u) ->
            go pid rank u rest
          | _ -> go best best_rank best_u rest)
    in
    go Arena.epsilon 0 0 (Instance.neighbors inst v)

let best_choice inst t v = Arena.path (best_choice_id inst t v)

let is_quiescent inst t =
  Channel.Map.is_empty t.chans
  && List.for_all
       (fun v ->
         let p = best_choice_id inst t v in
         Arena.equal p (pi_id t v) && Arena.equal p (announced_id t v))
       (Instance.nodes inst)

(* Map equality without [Map.equal]: its enumerators allocate a cell per
   visited node, and [equal] runs on every dedup hit of the explorers'
   intern tables.  Equal cardinality plus "every binding of [a] is bound
   equally in [b]" is the same relation and allocates only the closure. *)
let imap_equal eq a b =
  a == b
  || IMap.cardinal a = IMap.cardinal b
     && IMap.for_all
          (fun k v -> match IMap.find k b with w -> eq v w | exception Not_found -> false)
          a

let cmap_equal eq a b =
  a == b
  || Channel.Map.cardinal a = Channel.Map.cardinal b
     && Channel.Map.for_all
          (fun k v ->
            match Channel.Map.find k b with w -> eq v w | exception Not_found -> false)
          a

let equal (a : t) b =
  a == b
  || a.dig_core = b.dig_core
     && a.dig_chans = b.dig_chans
     && imap_equal Arena.equal a.pi b.pi
     && cmap_equal Arena.equal a.rho b.rho
     && imap_equal Arena.equal a.ann b.ann
     && cmap_equal (fun v w -> v == w || List.equal Arena.equal v w) a.chans b.chans

let compare (a : t) b =
  let c = IMap.compare Arena.compare a.pi b.pi in
  if c <> 0 then c
  else
    let c = Channel.Map.compare Arena.compare a.rho b.rho in
    if c <> 0 then c
    else
      let c = IMap.compare Arena.compare a.ann b.ann in
      if c <> 0 then c
      else Channel.Map.compare (List.compare Arena.compare) a.chans b.chans

let pp inst ppf t =
  let pp_path = Instance.pp_path inst in
  Fmt.pf ppf "@[<v>pi: %a@,rho: %a@,queues: %a@]"
    Fmt.(
      list ~sep:(any ", ") (fun ppf v ->
          Fmt.pf ppf "%s:%a" (Instance.name inst v) pp_path (pi t v)))
    (Instance.nodes inst)
    Fmt.(
      list ~sep:(any ", ") (fun ppf (c, p) ->
          Fmt.pf ppf "%a=%a" (Channel.pp_id inst) c pp_path p))
    (rho_bindings t)
    Fmt.(
      list ~sep:(any ", ") (fun ppf (c, msgs) ->
          Fmt.pf ppf "%a=[%a]" (Channel.pp_id inst) c (list ~sep:semi pp_path) msgs))
    (Channel.bindings_paths t.chans)

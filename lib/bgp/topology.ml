type kind = Provider_customer | Peer_peer
type relationship = Customer | Peer | Provider

(* Adjacency is stored sparsely: per node, neighbor ids sorted ascending
   with the parallel relationship view and each neighbor's slot for the
   node (so a simulator delivers to a neighbor without a search).  The
   seed's dense size x size relationship matrix capped topologies at a few
   hundred ASes (10k nodes would be 10^8 option cells); per-node arrays
   keep lookup O(log degree) and memory O(V + E), which is what lets
   generate_scaled reach 10k-100k nodes. *)
type rows = {
  ids : int array array;
  rel : relationship array array;
  back : int array array;
}

type t = {
  size : int;
  names : string array;
  links : (int * int * kind) list;
  rows : rows;
}

let size t = t.size
let names t = t.names
let name t v = t.names.(v)
let edges t = t.links
let rows t = t.rows

let relationship t ~of_ v =
  let ids = t.rows.ids.(of_) in
  let rec search lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let u = ids.(mid) in
      if u = v then Some t.rows.rel.(of_).(mid)
      else if u < v then search (mid + 1) hi
      else search lo mid
  in
  if of_ = v then None else search 0 (Array.length ids)

let neighbors t v = Array.to_list t.rows.ids.(v)
let degree t v = Array.length t.rows.ids.(v)

(* Provider-customer links must form a DAG.  The DFS recursion depth is the
   longest provider chain, which is the tier depth (3 for the generators);
   hand-built topologies are small. *)
let check_acyclic size links =
  let down = Array.make size [] in
  List.iter
    (fun (p, c, k) -> if k = Provider_customer then down.(p) <- c :: down.(p))
    links;
  let color = Array.make size 0 in
  let rec visit v =
    color.(v) <- 1;
    List.iter
      (fun c ->
        if color.(c) = 1 then invalid_arg "Topology: provider-customer cycle";
        if color.(c) = 0 then visit c)
      down.(v);
    color.(v) <- 2
  in
  for v = 0 to size - 1 do
    if color.(v) = 0 then visit v
  done

(* A row entry is first packed as [(u lsl 2) lor code], so an int sort
   orders the row by neighbor id and a duplicate link shows as two
   adjacent equal ids. *)
let code = function Customer -> 0 | Peer -> 1 | Provider -> 2
let of_code = function 0 -> Customer | 1 -> Peer | _ -> Provider

let make ~names ~links =
  let size = Array.length names in
  let check v = if v < 0 || v >= size then invalid_arg "Topology: node out of range" in
  let deg = Array.make size 0 in
  List.iter
    (fun (a, b, _) ->
      check a;
      check b;
      if a = b then invalid_arg "Topology: self-link";
      deg.(a) <- deg.(a) + 1;
      deg.(b) <- deg.(b) + 1)
    links;
  let ids = Array.init size (fun v -> Array.make deg.(v) 0) in
  let fill = Array.make size 0 in
  let add v u r =
    ids.(v).(fill.(v)) <- (u lsl 2) lor code r;
    fill.(v) <- fill.(v) + 1
  in
  List.iter
    (fun (a, b, k) ->
      match k with
      | Provider_customer ->
        add a b Customer;
        (* a sees b as its customer *)
        add b a Provider
      | Peer_peer ->
        add a b Peer;
        add b a Peer)
    links;
  let rel =
    Array.map
      (fun row ->
        Array.sort Int.compare row;
        let r = Array.map (fun key -> of_code (key land 3)) row in
        Array.iteri (fun i key -> row.(i) <- key lsr 2) row;
        for i = 1 to Array.length row - 1 do
          if row.(i) = row.(i - 1) then invalid_arg "Topology: duplicate link"
        done;
        r)
      ids
  in
  (* Duplicates first: a provider link listed in both orientations is a
     duplicate, not a cycle. *)
  check_acyclic size links;
  (* back.(v).(i): the slot of v in the row of its i-th neighbor u.  Rows
     are ascending and v runs ascending, so u's cursor sits on v's slot
     when v reaches it. *)
  let cursor = Array.make size 0 in
  let back =
    Array.map
      (Array.map (fun u ->
           let slot = cursor.(u) in
           cursor.(u) <- slot + 1;
           slot))
      ids
  in
  { size; names; links; rows = { ids; rel; back } }

let digest t =
  let b = Buffer.create (16 * t.size) in
  Array.iter
    (fun n ->
      Buffer.add_string b n;
      Buffer.add_char b '\x00')
    t.names;
  List.iter
    (fun (a, bnode, k) ->
      Buffer.add_string b (string_of_int a);
      Buffer.add_char b (match k with Provider_customer -> '>' | Peer_peer -> '-');
      Buffer.add_string b (string_of_int bnode);
      Buffer.add_char b '\x00')
    t.links;
  Digest.to_hex (Digest.string (Buffer.contents b))

type config = { tier1 : int; tier2 : int; stubs : int; seed : int }

let default_config = { tier1 = 2; tier2 = 3; stubs = 4; seed = 7 }

let generate cfg =
  if cfg.tier1 < 1 || cfg.tier2 < 1 || cfg.stubs < 1 then
    invalid_arg "Topology.generate: each tier needs at least one AS";
  let rng = Random.State.make [| cfg.seed; 0xbb9 |] in
  let n = cfg.tier1 + cfg.tier2 + cfg.stubs in
  let names =
    Array.init n (fun i ->
        if i < cfg.tier1 then Printf.sprintf "T%d" (i + 1)
        else if i < cfg.tier1 + cfg.tier2 then Printf.sprintf "M%d" (i - cfg.tier1 + 1)
        else Printf.sprintf "S%d" (i - cfg.tier1 - cfg.tier2 + 1))
  in
  let links = ref [] in
  (* Tier-1 full mesh of peering. *)
  for a = 0 to cfg.tier1 - 1 do
    for b = a + 1 to cfg.tier1 - 1 do
      links := (a, b, Peer_peer) :: !links
    done
  done;
  (* Each mid-tier AS buys transit from 1-2 tier-1s; occasional peering
     between mid-tier ASes. *)
  let mids = List.init cfg.tier2 (fun i -> cfg.tier1 + i) in
  List.iter
    (fun m ->
      let p1 = Random.State.int rng cfg.tier1 in
      links := (p1, m, Provider_customer) :: !links;
      if cfg.tier1 > 1 && Random.State.bool rng then begin
        let p2 = (p1 + 1 + Random.State.int rng (cfg.tier1 - 1)) mod cfg.tier1 in
        links := (p2, m, Provider_customer) :: !links
      end)
    mids;
  List.iteri
    (fun i m ->
      List.iteri
        (fun j m' ->
          if j > i && Random.State.int rng 3 = 0 then
            links := (m, m', Peer_peer) :: !links)
        mids)
    mids;
  (* Stubs are customers of 1-2 mid-tier (or occasionally tier-1) ASes. *)
  for s = cfg.tier1 + cfg.tier2 to n - 1 do
    let pick () =
      if Random.State.int rng 5 = 0 then Random.State.int rng cfg.tier1
      else cfg.tier1 + Random.State.int rng cfg.tier2
    in
    let p1 = pick () in
    links := (p1, s, Provider_customer) :: !links;
    if Random.State.bool rng then begin
      let p2 = pick () in
      if p2 <> p1 then links := (p2, s, Provider_customer) :: !links
    end
  done;
  make ~names ~links:!links

type scaled_config = {
  s_tier1 : int;
  s_tier2 : int;
  s_stubs : int;
  s_peer_links : int;
  s_seed : int;
}

let default_scaled_config =
  { s_tier1 = 10; s_tier2 = 490; s_stubs = 9_500; s_peer_links = 200; s_seed = 11 }

(* The internet-scale generator.  Same three-tier Gao-Rexford shape as
   [generate] but built for 10k-100k nodes:

   - links accumulate in per-node buckets instead of one list scan, so
     duplicate avoidance is O(1) per attempt;
   - stub -> tier-2 attachment is preferential (Barabasi-Albert style urn:
     one base ticket per provider plus one ticket per customer already
     won), producing the power-law provider-degree distribution of the
     measured AS graph rather than [generate]'s uniform one;
   - tier-2 peering is a fixed budget of random mid-mid links, not the
     O(tier2^2) coin-flip sweep.

   Deterministic in [s_seed]. *)
let generate_scaled cfg =
  if cfg.s_tier1 < 1 || cfg.s_tier2 < 1 || cfg.s_stubs < 1 then
    invalid_arg "Topology.generate_scaled: each tier needs at least one AS";
  if cfg.s_peer_links < 0 then invalid_arg "Topology.generate_scaled: negative peer budget";
  let rng = Random.State.make [| cfg.s_seed; 0x5ca1ed |] in
  let n = cfg.s_tier1 + cfg.s_tier2 + cfg.s_stubs in
  let names =
    Array.init n (fun i ->
        if i < cfg.s_tier1 then Printf.sprintf "T%d" (i + 1)
        else if i < cfg.s_tier1 + cfg.s_tier2 then Printf.sprintf "M%d" (i - cfg.s_tier1 + 1)
        else Printf.sprintf "S%d" (i - cfg.s_tier1 - cfg.s_tier2 + 1))
  in
  let links = ref [] in
  let linked = Hashtbl.create (4 * n) in
  let link a b k =
    let key = if a < b then (a, b) else (b, a) in
    if a <> b && not (Hashtbl.mem linked key) then begin
      Hashtbl.add linked key ();
      links := (a, b, k) :: !links;
      true
    end
    else false
  in
  (* Tier-1: full peering mesh. *)
  for a = 0 to cfg.s_tier1 - 1 do
    for b = a + 1 to cfg.s_tier1 - 1 do
      ignore (link a b Peer_peer)
    done
  done;
  (* Tier-2: one or two tier-1 providers each, uniform. *)
  let t2_lo = cfg.s_tier1 in
  for m = t2_lo to t2_lo + cfg.s_tier2 - 1 do
    let p1 = Random.State.int rng cfg.s_tier1 in
    ignore (link p1 m Provider_customer);
    if cfg.s_tier1 > 1 && Random.State.bool rng then begin
      let p2 = (p1 + 1 + Random.State.int rng (cfg.s_tier1 - 1)) mod cfg.s_tier1 in
      ignore (link p2 m Provider_customer)
    end
  done;
  (* Tier-2 peering: a budget of random mid-mid links. *)
  if cfg.s_tier2 > 1 then begin
    let placed = ref 0 and attempts = ref 0 in
    let budget = min cfg.s_peer_links (cfg.s_tier2 * (cfg.s_tier2 - 1) / 2) in
    while !placed < budget && !attempts < 20 * budget do
      incr attempts;
      let a = t2_lo + Random.State.int rng cfg.s_tier2 in
      let b = t2_lo + Random.State.int rng cfg.s_tier2 in
      if link a b Peer_peer then incr placed
    done
  end;
  (* Stubs: 1-2 tier-2 providers, preferential attachment.  The urn holds
     one ticket per tier-2 AS plus one per stub it has already won, so the
     provider-degree distribution follows a power law. *)
  let urn = ref (Array.init cfg.s_tier2 (fun i -> t2_lo + i)) in
  let urn_len = ref cfg.s_tier2 in
  let urn_push p =
    if !urn_len = Array.length !urn then begin
      let bigger = Array.make (2 * !urn_len) 0 in
      Array.blit !urn 0 bigger 0 !urn_len;
      urn := bigger
    end;
    !urn.(!urn_len) <- p;
    incr urn_len
  in
  let s_lo = t2_lo + cfg.s_tier2 in
  for s = s_lo to n - 1 do
    let p1 = !urn.(Random.State.int rng !urn_len) in
    ignore (link p1 s Provider_customer);
    urn_push p1;
    if Random.State.int rng 3 = 0 then begin
      let p2 = !urn.(Random.State.int rng !urn_len) in
      if link p2 s Provider_customer then urn_push p2
    end
  done;
  make ~names ~links:(List.rev !links)

let pp ppf t =
  Fmt.pf ppf "@[<v>AS topology (%d ASes)@," t.size;
  List.iter
    (fun (a, b, k) ->
      match k with
      | Provider_customer -> Fmt.pf ppf "  %s -> %s (provider-customer)@," t.names.(a) t.names.(b)
      | Peer_peer -> Fmt.pf ppf "  %s -- %s (peering)@," t.names.(a) t.names.(b))
    t.links;
  Fmt.pf ppf "@]"

open Engine

type batching = Per_epoch | Every of int

type config = {
  model : Model.t;
  shards : int;
  batching : batching;
  workers : int;
  max_epochs : int;
  lossy_every : int;
  seed : int;
}

let default_config =
  {
    model = { Model.rel = Reliable; nbr = N_multi; msg = M_some };
    shards = 4;
    batching = Per_epoch;
    workers = 1;
    max_epochs = 1_000_000;
    lossy_every = 0;
    seed = 0;
  }

let batching_of_model (m : Model.t) =
  match m.msg with
  | M_all | M_forced -> Per_epoch
  | M_some -> Every 4
  | M_one -> Every 1

let lossy_of_model (m : Model.t) = match m.rel with Reliable -> 0 | Unreliable -> 3

let config_for ?(shards = 4) ?(workers = 1) ?batching model =
  let batching = match batching with Some b -> b | None -> batching_of_model model in
  {
    default_config with
    model;
    shards;
    workers;
    batching;
    lossy_every = lossy_of_model model;
  }

type result = {
  converged : bool;
  epochs : int;
  activations : int;
  messages : int;
  cross_messages : int;
  flushes : int;
  drops : int;
  routes : Spp.Arena.id array;
  partition : Partition.t;
  pool_engaged : bool;
}

(* Gao-Rexford preference rank of a route by the relationship with its
   first hop. *)
let rank = function Topology.Customer -> 0 | Topology.Peer -> 1 | Topology.Provider -> 2

(* Who a node's chosen route may be exported to, fixed when it selects:
   the destination's own route and customer routes go to everyone, peer
   and provider routes to customers only. *)
type export = No_route | All | Customers_only

(* Lexicographic order of two node lists of equal length; allocates
   nothing, unlike a polymorphic [compare] of freshly consed lists. *)
let rec nodes_less (a : int list) (b : int list) =
  match (a, b) with
  | x :: a', y :: b' -> x < y || (x = y && nodes_less a' b')
  | [], _ :: _ -> true
  | _, [] -> false

let run ?metrics cfg topo ~dest =
  let n = Topology.size topo in
  if dest < 0 || dest >= n then invalid_arg "Shard.run: dest out of range";
  if (match cfg.batching with Every k -> k < 1 | Per_epoch -> false) then
    invalid_arg "Shard.run: batch size < 1";
  Metrics.timed ?m:metrics "shard" @@ fun () ->
  let part = Partition.make ~seed:cfg.seed ~shards:cfg.shards topo in
  let shards = cfg.shards in
  (* The topology's rows: neighbor ids (ascending), how the node sees each
     neighbor, and for neighbor i the index of the node in that neighbor's
     own row (so a delivery is one array write, no search). *)
  let { Topology.ids = nbrs; rel; back } = Topology.rows topo in
  (* Routing state.  The RIB is flat: [rib.(off.(v) + i)] is the last
     announcement received from neighbor [nbrs.(v).(i)] (epsilon =
     none/withdrawn).  [chosen.(v)] is the route currently selected and
     announced, [scope.(v)] its export class. *)
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Array.length nbrs.(v)
  done;
  let eps = Spp.Arena.epsilon in
  let rib = Array.make off.(n) eps in
  let chosen = Array.make n eps in
  let scope = Array.make n No_route in
  let trivial = Spp.Arena.of_nodes [ dest ] in
  (* Per-shard worklists of dirty nodes and cross-partition outboxes.
     During the parallel phase a shard touches only its own nodes' state,
     its own worklist and its own outbox; RIB entries of other shards'
     nodes are written exclusively by the sequential barrier drain. *)
  let dirty = Array.make n false in
  (* A worklist is a ring of the shard's size: [dirty] keeps a node in its
     shard's ring at most once. *)
  let wl = Array.init shards (fun s -> Array.make (Partition.size_of part s) 0) in
  let wl_head = Array.make shards 0 and wl_len = Array.make shards 0 in
  (* An outbox holds (w, RIB index, route) triples packed into one int
     array; [out_len.(s)] is the number of ints in use. *)
  let outbox = Array.init shards (fun _ -> Array.make 48 0) in
  let out_len = Array.make shards 0 in
  let post s w at route =
    let len = out_len.(s) in
    if len = Array.length outbox.(s) then begin
      let bigger = Array.make (2 * len) 0 in
      Array.blit outbox.(s) 0 bigger 0 len;
      outbox.(s) <- bigger
    end;
    let box = outbox.(s) in
    box.(len) <- w;
    box.(len + 1) <- at;
    box.(len + 2) <- route;
    out_len.(s) <- len + 3
  in
  let acts = Array.make shards 0 in
  let msgs = Array.make shards 0 in
  let cross = Array.make shards 0 in
  let flushes = ref 0 and drops = ref 0 and lossy_count = ref 0 in
  let enqueue v =
    if not dirty.(v) then begin
      dirty.(v) <- true;
      let s = Partition.owner part v in
      let ring = wl.(s) in
      ring.((wl_head.(s) + wl_len.(s)) mod Array.length ring) <- v;
      wl_len.(s) <- wl_len.(s) + 1
    end
  in
  let deliver w at route =
    if rib.(at) <> route then begin
      rib.(at) <- route;
      enqueue w
    end
  in
  let effective scope rel_to_nbr p =
    match scope with
    | No_route -> eps
    | All -> p
    | Customers_only -> if rel_to_nbr = Topology.Customer then p else eps
  in
  (* Announce a route change to every neighbor whose effective view of the
     node changed (the engine's Step.apply push rule); the destination
     never receives. *)
  let announce s v ~old ~scope_old ~now ~scope_now =
    let row = nbrs.(v) and rels = rel.(v) and backs = back.(v) in
    for i = 0 to Array.length row - 1 do
      let w = row.(i) in
      if w <> dest then begin
        let eff_old = effective scope_old rels.(i) old in
        let eff_now = effective scope_now rels.(i) now in
        if eff_old <> eff_now then begin
          msgs.(s) <- msgs.(s) + 1;
          let at = off.(w) + backs.(i) in
          if Partition.owner part w = s then deliver w at eff_now
          else begin
            cross.(s) <- cross.(s) + 1;
            post s w at eff_now
          end
        end
      end
    done
  in
  (* The neighbor slot of v's best simple extension of its received
     announcements, or -1 if there is none: an exported route is
     valley-free by induction on the export chain, so v.p is permitted iff
     it is simple.  Ties on rank and length go to the lexicographically
     smaller v.p. *)
  let select v =
    let row = nbrs.(v) and rels = rel.(v) and base = off.(v) in
    let best = ref (-1) and best_r = ref eps in
    let best_rank = ref max_int and best_len = ref max_int in
    for i = 0 to Array.length row - 1 do
      let r = rib.(base + i) in
      if (not (Spp.Arena.is_epsilon r)) && not (Spp.Arena.contains v r) then begin
        let rk = rank rels.(i) and len = Spp.Arena.length r in
        if
          rk < !best_rank
          || rk = !best_rank
             && (len < !best_len
                || len = !best_len
                   && nodes_less (Spp.Arena.to_nodes r) (Spp.Arena.to_nodes !best_r))
        then begin
          best := i;
          best_r := r;
          best_rank := rk;
          best_len := len
        end
      end
    done;
    !best
  in
  let activate s v =
    if v = dest then begin
      if Spp.Arena.is_epsilon chosen.(dest) then begin
        chosen.(dest) <- trivial;
        scope.(dest) <- All;
        announce s dest ~old:eps ~scope_old:No_route ~now:trivial ~scope_now:All
      end
    end
    else begin
      let i = select v in
      let old = chosen.(v) in
      let now =
        if i < 0 then eps
        else
          let r = rib.(off.(v) + i) in
          (* an unchanged route costs no intern lookup *)
          if (not (Spp.Arena.is_epsilon old)) && Spp.Arena.suffix old = r then old
          else Spp.Arena.extend v r
      in
      if now <> old then begin
        let scope_old = scope.(v) in
        let scope_now =
          if i < 0 then No_route
          else match rel.(v).(i) with Topology.Customer -> All | _ -> Customers_only
        in
        chosen.(v) <- now;
        scope.(v) <- scope_now;
        announce s v ~old ~scope_old ~now ~scope_now
      end
    end
  in
  let phase s =
    let cap =
      match cfg.batching with
      | Every k -> k
      | Per_epoch ->
        (* run the shard's cascade to (bounded) exhaustion *)
        max 64 (16 * Partition.size_of part s)
    in
    let processed = ref 0 in
    let ring = wl.(s) in
    while !processed < cap && wl_len.(s) > 0 do
      let v = ring.(wl_head.(s)) in
      wl_head.(s) <- (wl_head.(s) + 1) mod Array.length ring;
      wl_len.(s) <- wl_len.(s) - 1;
      dirty.(v) <- false;
      activate s v;
      incr processed
    done;
    acts.(s) <- acts.(s) + !processed
  in
  (* For a lossy flush, [newest.(at)] is the position of the newest
     message on RIB entry [at]'s channel.  Each flush writes the entries of
     its own channels before reading them, so the array is never cleared. *)
  let newest = if cfg.lossy_every = 0 then [||] else Array.make off.(n) 0 in
  let drain s =
    let len = out_len.(s) and box = outbox.(s) in
    if len > 0 then begin
      incr flushes;
      out_len.(s) <- 0;
      if cfg.lossy_every = 0 then
        for j = 0 to (len / 3) - 1 do
          deliver box.(3 * j) box.((3 * j) + 1) box.((3 * j) + 2)
        done
      else begin
        (* The newest message per channel always survives a lossy flush,
           so drops shed traffic without changing the fixpoint. *)
        for j = 0 to (len / 3) - 1 do
          newest.(box.((3 * j) + 1)) <- j
        done;
        for j = 0 to (len / 3) - 1 do
          let dropped =
            newest.(box.((3 * j) + 1)) <> j
            && begin
                 incr lossy_count;
                 !lossy_count mod cfg.lossy_every = 0
               end
          in
          if dropped then incr drops
          else deliver box.(3 * j) box.((3 * j) + 1) box.((3 * j) + 2)
        done
      end
    end
  in
  (* Epoch 1 activates everyone, each shard's nodes in ascending order. *)
  for v = 0 to n - 1 do
    enqueue v
  done;
  let workers = max 1 (min cfg.workers shards) in
  let pool_engaged = ref false in
  (* Only a Per_epoch phase is worth a pool dispatch: an [Every k] phase
     runs at most k activations per shard, less work than the dispatch. *)
  let parallel_phase () =
    match cfg.batching with
    | Per_epoch when workers > 1 ->
      pool_engaged := true;
      Pool.run (Pool.get ()) ~workers (fun wid ->
          let s = ref wid in
          while !s < shards do
            phase !s;
            s := !s + workers
          done)
    | Per_epoch | Every _ ->
      for s = 0 to shards - 1 do
        phase s
      done
  in
  let quiet () =
    let q = ref true in
    for s = 0 to shards - 1 do
      if wl_len.(s) > 0 then q := false
    done;
    !q
  in
  let rec loop epoch =
    if epoch > cfg.max_epochs then (epoch - 1, false)
    else begin
      parallel_phase ();
      for s = 0 to shards - 1 do
        drain s
      done;
      if quiet () then (epoch, true) else loop (epoch + 1)
    end
  in
  let epochs, converged = loop 1 in
  let total a = Array.fold_left ( + ) 0 a in
  (match metrics with
  | None -> ()
  | Some m ->
    Metrics.add_steps m (total acts);
    Metrics.add_messages m (total msgs));
  {
    converged;
    epochs;
    activations = total acts;
    messages = total msgs;
    cross_messages = total cross;
    flushes = !flushes;
    drops = !drops;
    routes = chosen;
    partition = part;
    pool_engaged = !pool_engaged;
  }

let assignment inst r =
  Spp.Assignment.of_list inst
    (Array.to_list
       (Array.mapi (fun v id -> (v, Spp.Arena.path id)) r.routes))

let route_digest r =
  let b = Buffer.create (8 * Array.length r.routes) in
  Array.iteri
    (fun v id ->
      Buffer.add_string b (string_of_int v);
      Buffer.add_char b ':';
      List.iter
        (fun u ->
          Buffer.add_string b (string_of_int u);
          Buffer.add_char b ',')
        (Spp.Arena.to_nodes id);
      Buffer.add_char b ';')
    r.routes;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pp_result ppf r =
  Fmt.pf ppf
    "@[<v>sharded run: %s after %d epochs@,\
    \  %d activations, %d messages (%d cross-shard, %d flushes, %d dropped)@,\
    \  %d shards, cut %d links, pool %s@]"
    (if r.converged then "converged" else "did NOT converge")
    r.epochs r.activations r.messages r.cross_messages r.flushes r.drops
    (Partition.shards r.partition)
    (Partition.cut_edges r.partition)
    (if r.pool_engaged then "engaged" else "idle")

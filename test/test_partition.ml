(* Tests for the internet-scale BGP substrate: the scaled topology
   generator, edge-cut partitioning, the sharded simulator's parity with
   the legacy engine, lossy cross-partition batching, metrics threading,
   and the algebraic route to the Gao-Rexford instances. *)

open Spp
open Engine
open Bgp

let model s = Option.get (Model.of_string s)

(* ------------------------------------------------------------------ *)
(* generate_scaled: golden digest and structural invariants *)

(* The committed bench artifact (results/BENCH_bgp.json) records this
   digest for the default 10k-node topology; the generator must stay
   byte-stable or the artifact gate and this golden both fail. *)
let test_scaled_golden () =
  let t = Topology.generate_scaled Topology.default_scaled_config in
  Alcotest.(check int) "size" 10_000 (Topology.size t);
  Alcotest.(check int) "links" 13_678 (List.length (Topology.edges t));
  Alcotest.(check string) "digest" "ab2f8c698811f7add1234cc3eeed1190" (Topology.digest t)

let scaled_small =
  { Topology.s_tier1 = 4; s_tier2 = 40; s_stubs = 400; s_peer_links = 30; s_seed = 3 }

let test_scaled_structure () =
  let cfg = scaled_small in
  let t = Topology.generate_scaled cfg in
  let n1 = cfg.Topology.s_tier1 and n2 = cfg.Topology.s_tier2 in
  let n = n1 + n2 + cfg.Topology.s_stubs in
  Alcotest.(check int) "size" n (Topology.size t);
  (* tier 1 is a full peer mesh *)
  for i = 0 to n1 - 1 do
    for j = i + 1 to n1 - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "tier-1 %d/%d peer" i j)
        true
        (Topology.relationship t ~of_:i j = Some Topology.Peer)
    done
  done;
  let providers v =
    List.filter
      (fun u -> Topology.relationship t ~of_:v u = Some Topology.Provider)
      (Topology.neighbors t v)
  in
  (* tier 2: 1-2 tier-1 providers, nothing below *)
  for v = n1 to n1 + n2 - 1 do
    let ps = providers v in
    let k = List.length ps in
    if k < 1 || k > 2 then Alcotest.failf "tier-2 %d has %d providers" v k;
    List.iter
      (fun p -> if p >= n1 then Alcotest.failf "tier-2 %d provider %d not tier-1" v p)
      ps
  done;
  (* stubs: 1-2 providers, all tier-2, and no customers of their own *)
  for v = n1 + n2 to n - 1 do
    let ps = providers v in
    let k = List.length ps in
    if k < 1 || k > 2 then Alcotest.failf "stub %d has %d providers" v k;
    List.iter
      (fun p ->
        if p < n1 || p >= n1 + n2 then
          Alcotest.failf "stub %d provider %d not tier-2" v p)
      ps;
    List.iter
      (fun u ->
        if Topology.relationship t ~of_:v u = Some Topology.Customer then
          Alcotest.failf "stub %d has customer %d" v u)
      (Topology.neighbors t v)
  done;
  (* preferential attachment: stub customers concentrate on a few tier-2
     providers, so the max customer count clearly exceeds the mean *)
  let customers = Array.make n 0 in
  for v = n1 + n2 to n - 1 do
    List.iter (fun p -> customers.(p) <- customers.(p) + 1) (providers v)
  done;
  let t2_counts = Array.sub customers n1 n2 in
  let total = Array.fold_left ( + ) 0 t2_counts in
  let mean = float_of_int total /. float_of_int n2 in
  let max_c = Array.fold_left max 0 t2_counts in
  if float_of_int max_c < 2.0 *. mean then
    Alcotest.failf "no power-law skew: max %d, mean %.2f" max_c mean

let test_scaled_deterministic () =
  let a = Topology.generate_scaled scaled_small in
  let b = Topology.generate_scaled scaled_small in
  Alcotest.(check string) "same seed, same digest" (Topology.digest a) (Topology.digest b);
  let c =
    Topology.generate_scaled { scaled_small with Topology.s_seed = 4 }
  in
  Alcotest.(check bool) "different seed, different digest" true
    (Topology.digest a <> Topology.digest c)

(* ------------------------------------------------------------------ *)
(* Partition invariants *)

let test_partition_invariants () =
  let topo = Topology.generate { Topology.default_config with seed = 7 } in
  let n = Topology.size topo in
  List.iter
    (fun k ->
      let p = Partition.make ~seed:1 ~shards:k topo in
      Alcotest.(check int) "shards" k (Partition.shards p);
      (* members partition the node set, each list ascending *)
      let all = List.concat_map (fun s -> Partition.members p s) (List.init k Fun.id) in
      Alcotest.(check int) "covers all nodes" n (List.length all);
      Alcotest.(check (list int)) "partition of 0..n-1" (List.init n Fun.id)
        (List.sort compare all);
      List.iter
        (fun s ->
          let ms = Partition.members p s in
          Alcotest.(check (list int)) "ascending" (List.sort compare ms) ms;
          Alcotest.(check int) "size_of" (List.length ms) (Partition.size_of p s);
          List.iter
            (fun v -> Alcotest.(check int) "owner consistent" s (Partition.owner p v))
            ms)
        (List.init k Fun.id);
      (* border edges are directed cut pairs between adjacent nodes *)
      let b = Partition.border p in
      Alcotest.(check int) "border = 2 * cut" (2 * Partition.cut_edges p)
        (List.length b);
      List.iter
        (fun (u, v) ->
          Alcotest.(check bool) "cut" true (Partition.owner p u <> Partition.owner p v);
          Alcotest.(check bool) "adjacent" true
            (List.mem v (Topology.neighbors topo u)))
        b;
      Alcotest.(check (list (pair int int))) "border sorted" (List.sort compare b) b;
      Alcotest.(check bool) "imbalance >= 1" true (Partition.imbalance p >= 1.0);
      let f = Partition.cut_fraction p in
      Alcotest.(check bool) "cut fraction in [0,1]" true (f >= 0.0 && f <= 1.0))
    [ 1; 2; 3; 5 ];
  let p1 = Partition.make ~shards:1 topo in
  Alcotest.(check int) "K=1 has no cut" 0 (Partition.cut_edges p1)

let test_partition_deterministic () =
  let topo = Topology.generate { Topology.default_config with seed = 9 } in
  let n = Topology.size topo in
  let owners seed =
    let p = Partition.make ~seed ~shards:3 topo in
    List.init n (Partition.owner p)
  in
  Alcotest.(check (list int)) "same seed, same owners" (owners 5) (owners 5)

let test_partition_rejects () =
  let topo = Topology.generate { Topology.default_config with seed = 1 } in
  let expect_invalid shards =
    try
      ignore (Partition.make ~shards topo);
      Alcotest.failf "expected rejection of shards=%d" shards
    with Invalid_argument _ -> ()
  in
  expect_invalid 0;
  expect_invalid (Topology.size topo + 1)

(* Digests of [owner], [border] and [cut_edges] recorded before the
   partitioner moved from neighbor lists to the adjacency rows; any change
   to the seeding, the growth order or the border's order shows here. *)
let partition_digest topo p =
  let b = Buffer.create 1024 in
  for v = 0 to Topology.size topo - 1 do
    Buffer.add_string b (string_of_int (Partition.owner p v));
    Buffer.add_char b ','
  done;
  Buffer.add_char b '|';
  List.iter (fun (u, v) -> Printf.bprintf b "%d-%d;" u v) (Partition.border p);
  Printf.bprintf b "|%d" (Partition.cut_edges p);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Three components and two isolated nodes, so growth re-seeds. *)
let islands () =
  Topology.make
    ~names:(Array.init 12 string_of_int)
    ~links:
      [
        (0, 1, Topology.Provider_customer);
        (1, 2, Topology.Peer_peer);
        (4, 3, Topology.Provider_customer);
        (5, 6, Topology.Peer_peer);
        (9, 8, Topology.Provider_customer);
        (9, 10, Topology.Provider_customer);
      ]

let test_partition_pinned () =
  let topos =
    [
      ("generate7", Topology.generate { Topology.default_config with seed = 7 });
      ("generate5-big", Topology.generate { Topology.tier1 = 3; tier2 = 12; stubs = 40; seed = 5 });
      ("islands", islands ());
      ("scaled3", Topology.generate_scaled scaled_small);
    ]
  in
  List.iter
    (fun (name, seed, shards, digest, cut) ->
      let topo = List.assoc name topos in
      let p = Partition.make ~seed ~shards topo in
      let label = Printf.sprintf "%s seed=%d K=%d" name seed shards in
      Alcotest.(check int) (label ^ " cut") cut (Partition.cut_edges p);
      Alcotest.(check string) (label ^ " digest") digest (partition_digest topo p))
    [
    ("generate7", 0, 1, "ecdd9d16d813fff050f99d3b5b29d50c", 0);
    ("generate7", 1, 2, "f4ee6da3d6b0e8d7d2f8146b8682e784", 1);
    ("generate7", 3, 3, "f83df2ad7a17ab2b9a9e3fb26f8a23f5", 2);
    ("generate7", 5, 5, "164137d1a25a6d9f5dabde94aecc56bd", 4);
    ("generate5-big", 0, 2, "b50671d5ddc1d208c9ca0ea66fba719f", 28);
    ("generate5-big", 2, 4, "54d91213ddb2a7f9a996f1e0a16c30cf", 43);
    ("generate5-big", 9, 7, "315a4dce2dd59e8c2e4c9f737a242169", 49);
    ("generate5-big", -3, 3, "e37feab9fd68a37a969136993c68c936", 36);
    ("islands", 0, 2, "37552ed3e275848ca24b21fe91513511", 0);
    ("islands", 4, 3, "fbaf39e2d74c9a3077dd15b20b5f29a0", 0);
    ("islands", 11, 5, "7bdb713e201f4788556f34c66bece9b5", 0);
    ("islands", 2, 12, "e9ad541ea419fb76bef85c2db1d0b5b9", 6);
    ("scaled3", 0, 1, "d8b32fe16d24d576dd11c5efee124369", 0);
    ("scaled3", 0, 4, "d7acf02f396b854419d073932fed6926", 119);
    ("scaled3", 1, 8, "532ee136f6d58ff2141bc20d32e9bd1b", 155);
    ("scaled3", 17, 3, "d800bbaf73898294ee20e550fd9c43cc", 128);
    ("scaled3", 5, 16, "cee3d5ff91962f5296a1ac07156004ba", 204);
    ]

(* ------------------------------------------------------------------ *)
(* Sharded simulator: parity with the legacy engine *)

let shard_parity_case topo ~dest ~m ~shards ~batching =
  let legacy = Simulate.run topo ~dest ~model:m ~scheduler:Scheduler.round_robin in
  let cfg = Shard.config_for ~shards ~workers:1 ~batching m in
  let r = Shard.run cfg topo ~dest in
  let inst = Policy.compile topo ~dest in
  legacy.Simulate.converged && r.Shard.converged
  && Assignment.equal (Shard.assignment inst r) legacy.Simulate.assignment

let test_shard_parity_small () =
  let topo = Topology.generate { Topology.default_config with seed = 42 } in
  let dest = Topology.size topo - 1 in
  List.iter
    (fun mname ->
      List.iter
        (fun shards ->
          Alcotest.(check bool)
            (Printf.sprintf "parity %s K=%d" mname shards)
            true
            (shard_parity_case topo ~dest ~m:(model mname) ~shards
               ~batching:Shard.Per_epoch))
        [ 1; 2; 4 ])
    [ "R1O"; "RMS"; "REA"; "RMA"; "U1O"; "UMS"; "UEA"; "UMA" ]

let prop_shard_parity =
  QCheck2.Test.make ~name:"K-shard routes = legacy engine assignment" ~count:40
    QCheck2.Gen.(
      tup4 (int_range 0 9_999) (int_range 0 23) (int_range 1 5) (int_range 0 2))
    (fun (seed, mi, shards, bi) ->
      let topo = Topology.generate { Topology.default_config with seed } in
      let dest = Topology.size topo - 1 in
      let shards = min shards (Topology.size topo) in
      let m = List.nth Model.all mi in
      let batching =
        List.nth [ Shard.Per_epoch; Shard.Every 1; Shard.Every 3 ] bi
      in
      shard_parity_case topo ~dest ~m ~shards ~batching)

let test_shard_digest_stable_across_k () =
  let topo = Topology.generate_scaled scaled_small in
  let dest = Topology.size topo - 1 in
  let digest shards =
    let cfg = Shard.config_for ~shards ~workers:1 (model "RMS") in
    let r = Shard.run cfg topo ~dest in
    Alcotest.(check bool) (Printf.sprintf "K=%d converges" shards) true r.Shard.converged;
    Shard.route_digest r
  in
  let d1 = digest 1 in
  List.iter
    (fun k -> Alcotest.(check string) (Printf.sprintf "K=%d digest" k) d1 (digest k))
    [ 2; 4; 8 ]

(* Whatever sequence of topologies, seeds and shard counts Shard.run sees,
   each result's partition must be the one a fresh Partition.make gives. *)
let test_shard_partition_fresh () =
  let a = Topology.generate { Topology.default_config with seed = 42 } in
  let b = Topology.generate_scaled scaled_small in
  let same_as_fresh label topo ~seed ~shards =
    let cfg = { (Shard.config_for ~shards ~workers:1 (model "RMS")) with seed } in
    let r = Shard.run cfg topo ~dest:0 in
    let fresh = Partition.make ~seed ~shards topo in
    let p = r.Shard.partition in
    Alcotest.(check bool) (label ^ ": same topology") true (Partition.topology p == topo);
    Alcotest.(check int) (label ^ ": shards") shards (Partition.shards p);
    Alcotest.(check string) (label ^ ": partition")
      (partition_digest topo fresh) (partition_digest topo p)
  in
  same_as_fresh "A" a ~seed:0 ~shards:3;
  same_as_fresh "B" b ~seed:0 ~shards:3;
  same_as_fresh "A again" a ~seed:0 ~shards:3;
  same_as_fresh "A, other seed" a ~seed:5 ~shards:3;
  same_as_fresh "A, other shard count" a ~seed:5 ~shards:2;
  same_as_fresh "B, other seed" b ~seed:1 ~shards:2

(* All 24 models at K = 4 on the 444-node topology, toward tier-1 AS 1,
   against counts recorded before the routing loop moved to a flat RIB.
   Node ids exceed the arena's 62-bit mask, so [contains] walks node
   lists; equal-rank, equal-length candidates exercise the lexicographic
   tie-break; and the polling-flavoured unreliable models drop messages in
   lossy flushes. *)
let test_shard_counts_pinned () =
  let topo = Topology.generate_scaled scaled_small in
  let digest = "c02db623bc853bb7055224be6b877d67" in
  (* epochs, activations, messages, cross messages, drops *)
  let o = (334, 797, 714, 131, 0) and s = (84, 809, 714, 131, 0) in
  let fa = (3, 850, 714, 131, 0) and fa_lossy = (3, 850, 714, 131, 8) in
  List.iter
    (fun (mname, (epochs, acts, msgs, cross, drops)) ->
      let r = Shard.run (Shard.config_for ~shards:4 ~workers:1 (model mname)) topo ~dest:1 in
      let check what = Alcotest.(check int) (mname ^ " " ^ what) in
      Alcotest.(check bool) (mname ^ " converged") true r.Shard.converged;
      check "epochs" epochs r.Shard.epochs;
      check "activations" acts r.Shard.activations;
      check "messages" msgs r.Shard.messages;
      check "cross messages" cross r.Shard.cross_messages;
      check "drops" drops r.Shard.drops;
      Alcotest.(check string) (mname ^ " routes") digest (Shard.route_digest r))
    (List.concat_map
       (fun rel ->
         List.concat_map
           (fun (msg, counts) ->
             List.map (fun nbr -> (rel ^ nbr ^ msg, counts rel)) [ "1"; "M"; "E" ])
           [
             ("O", fun _ -> o);
             ("S", fun _ -> s);
             ("F", fun rel -> if rel = "U" then fa_lossy else fa);
             ("A", fun rel -> if rel = "U" then fa_lossy else fa);
           ])
       [ "R"; "U" ])

(* ------------------------------------------------------------------ *)
(* Lossy batching: drops really happen, and never change the fixpoint *)

(* A chain where one node's best route improves within a single epoch:
   node 2 first selects the provider route via 1, announces it across the
   cut to 4, then learns the better customer route via 3 and announces
   again — two messages for the same channel in one flush, so a lossy
   config must drop the superseded one and still converge to the same
   routes as the reliable 1-shard run. *)
let lossy_topo () =
  Topology.make
    ~names:(Array.init 8 (fun i -> Printf.sprintf "a%d" i))
    ~links:
      [
        (1, 0, Topology.Provider_customer);
        (1, 2, Topology.Provider_customer);
        (3, 0, Topology.Provider_customer);
        (2, 3, Topology.Provider_customer);
        (2, 4, Topology.Provider_customer);
        (4, 5, Topology.Provider_customer);
        (5, 6, Topology.Provider_customer);
        (6, 7, Topology.Provider_customer);
      ]

let test_lossy_drops_superseded () =
  let topo = lossy_topo () in
  let dest = 0 in
  let reliable =
    Shard.run
      { Shard.default_config with shards = 1; lossy_every = 0 }
      topo ~dest
  in
  Alcotest.(check bool) "reliable converges" true reliable.Shard.converged;
  let found = ref false in
  let seed = ref 0 in
  while (not !found) && !seed < 50 do
    let r =
      Shard.run
        {
          Shard.default_config with
          shards = 2;
          batching = Shard.Per_epoch;
          lossy_every = 1;
          seed = !seed;
        }
        topo ~dest
    in
    Alcotest.(check bool)
      (Printf.sprintf "lossy converges (seed %d)" !seed)
      true r.Shard.converged;
    Alcotest.(check string)
      (Printf.sprintf "lossy fixpoint (seed %d)" !seed)
      (Shard.route_digest reliable) (Shard.route_digest r);
    if r.Shard.drops > 0 then found := true else incr seed
  done;
  Alcotest.(check bool) "some partition forces a drop" true !found

(* ------------------------------------------------------------------ *)
(* Metrics threading *)

let test_metrics_simulate () =
  let topo = Topology.generate { Topology.default_config with seed = 42 } in
  let dest = Topology.size topo - 1 in
  let m = Metrics.create () in
  let r =
    Simulate.run ~metrics:m topo ~dest ~model:(model "RMS")
      ~scheduler:Scheduler.round_robin
  in
  Alcotest.(check int) "steps counted" r.Simulate.steps (Metrics.steps m);
  Alcotest.(check int) "messages counted" r.Simulate.messages (Metrics.messages m);
  Alcotest.(check bool) "executor phase recorded" true
    (List.mem_assoc "executor" (Metrics.phases m))

let test_metrics_shard () =
  let topo = Topology.generate { Topology.default_config with seed = 42 } in
  let dest = Topology.size topo - 1 in
  let m = Metrics.create () in
  let cfg = Shard.config_for ~shards:3 ~workers:1 (model "RMS") in
  let r = Shard.run ~metrics:m cfg topo ~dest in
  Alcotest.(check int) "activations counted" r.Shard.activations (Metrics.steps m);
  Alcotest.(check int) "messages counted" r.Shard.messages (Metrics.messages m);
  Alcotest.(check bool) "shard phase recorded" true
    (List.mem_assoc "shard" (Metrics.phases m))

(* ------------------------------------------------------------------ *)
(* The algebraic route to the same instances *)

let test_labeled_graph_matches_compile () =
  List.iter
    (fun seed ->
      let topo = Topology.generate { Topology.default_config with seed } in
      let dest = Topology.size topo - 1 in
      let direct = Policy.compile topo ~dest in
      let lg = Policy.labeled_graph topo ~dest in
      let algebraic = Algebra.compile Algebra.gao_rexford lg in
      Alcotest.(check (list (of_pp Fmt.nop)))
        "algebraic instance validates" [] (Instance.validate algebraic);
      let sorted inst v = List.sort Path.compare (Instance.permitted inst v) in
      for v = 0 to Topology.size topo - 1 do
        if v <> dest then
          Alcotest.(check bool)
            (Printf.sprintf "permitted sets agree at %d (seed %d)" v seed)
            true
            (List.equal Path.equal (sorted direct v) (sorted algebraic v))
      done;
      let c = Algebra.check_conditions Algebra.gao_rexford lg in
      Alcotest.(check bool) "gao-rexford labeling is monotone" true c.Algebra.monotone)
    [ 3; 42 ]

(* ------------------------------------------------------------------ *)

let properties = List.map QCheck_alcotest.to_alcotest [ prop_shard_parity ]

let () =
  Alcotest.run "partition"
    [
      ( "scaled-topology",
        [
          Alcotest.test_case "10k golden digest" `Quick test_scaled_golden;
          Alcotest.test_case "three-tier structure" `Quick test_scaled_structure;
          Alcotest.test_case "deterministic in seed" `Quick test_scaled_deterministic;
        ] );
      ( "partition",
        [
          Alcotest.test_case "invariants" `Quick test_partition_invariants;
          Alcotest.test_case "deterministic" `Quick test_partition_deterministic;
          Alcotest.test_case "rejects bad shard counts" `Quick test_partition_rejects;
          Alcotest.test_case "pinned owner/border/cut digests" `Quick test_partition_pinned;
        ] );
      ( "shard",
        [
          Alcotest.test_case "parity, corner models x K" `Quick test_shard_parity_small;
          Alcotest.test_case "digest stable across K at 444 nodes" `Slow
            test_shard_digest_stable_across_k;
          Alcotest.test_case "lossy drops superseded messages" `Quick
            test_lossy_drops_superseded;
          Alcotest.test_case "run's partition = fresh partition" `Quick
            test_shard_partition_fresh;
          Alcotest.test_case "24 models' counts pinned at 444 nodes" `Quick
            test_shard_counts_pinned;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "simulate threads metrics" `Quick test_metrics_simulate;
          Alcotest.test_case "shard threads metrics" `Quick test_metrics_shard;
        ] );
      ( "algebra",
        [
          Alcotest.test_case "labeled graph compiles to the same instance" `Quick
            test_labeled_graph_matches_compile;
        ] );
      ("parity-properties", properties);
    ]

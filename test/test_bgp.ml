(* Tests for the BGP substrate: topologies, Gao-Rexford policy compilation,
   the taxonomy mapping, and end-to-end convergence. *)

open Spp
open Engine
open Bgp

let model s = Option.get (Model.of_string s)

(* A small hand-built topology:
     T1 -- T2         (peering)
     T1 -> M1, T2 -> M2 (provider -> customer)
     M1 -- M2         (peering)
     M1 -> S, M2 -> S (provider -> customer)
   Destination: S. *)
let small () =
  Topology.make
    ~names:[| "T1"; "T2"; "M1"; "M2"; "S" |]
    ~links:
      [
        (0, 1, Topology.Peer_peer);
        (0, 2, Topology.Provider_customer);
        (1, 3, Topology.Provider_customer);
        (2, 3, Topology.Peer_peer);
        (2, 4, Topology.Provider_customer);
        (3, 4, Topology.Provider_customer);
      ]

let test_topology_basics () =
  let t = small () in
  Alcotest.(check int) "size" 5 (Topology.size t);
  Alcotest.(check (list int)) "neighbors of M1" [ 0; 3; 4 ] (Topology.neighbors t 2);
  Alcotest.(check bool) "T1 sees M1 as customer" true
    (Topology.relationship t ~of_:0 2 = Some Topology.Customer);
  Alcotest.(check bool) "M1 sees T1 as provider" true
    (Topology.relationship t ~of_:2 0 = Some Topology.Provider);
  Alcotest.(check bool) "M1/M2 peers" true
    (Topology.relationship t ~of_:2 3 = Some Topology.Peer);
  Alcotest.(check bool) "not adjacent" true (Topology.relationship t ~of_:0 4 = None)

let test_topology_rejects_cycles () =
  try
    ignore
      (Topology.make ~names:[| "a"; "b"; "c" |]
         ~links:
           [
             (0, 1, Topology.Provider_customer);
             (1, 2, Topology.Provider_customer);
             (2, 0, Topology.Provider_customer);
           ]);
    Alcotest.fail "expected cycle rejection"
  with Invalid_argument _ -> ()

(* Each malformed link list keeps its exact message; a duplicate is a
   duplicate in either orientation and whatever the kinds, and is reported
   before the hierarchy is checked for cycles. *)
let test_topology_rejects_malformed () =
  let pc = Topology.Provider_customer and pp = Topology.Peer_peer in
  let expect msg links =
    match Topology.make ~names:[| "a"; "b"; "c" |] ~links with
    | _ -> Alcotest.failf "expected %S" msg
    | exception Invalid_argument got -> Alcotest.(check string) msg msg got
  in
  expect "Topology: self-link" [ (0, 1, pc); (2, 2, pp) ];
  expect "Topology: node out of range" [ (0, 3, pp) ];
  List.iter
    (expect "Topology: duplicate link")
    [
      [ (0, 1, pc); (0, 1, pc) ];
      [ (0, 1, pc); (1, 0, pc) ];
      [ (0, 1, pp); (1, 0, pp) ];
      [ (0, 1, pc); (0, 1, pp) ];
      [ (1, 2, pp); (2, 1, pc) ];
      [ (0, 1, pc); (1, 2, pc); (2, 1, pc) ];
    ];
  expect "Topology: provider-customer cycle" [ (0, 1, pc); (1, 2, pc); (2, 0, pc) ]

let test_route_class () =
  let t = small () in
  let p nodes = Path.of_nodes nodes in
  Alcotest.(check bool) "customer route" true
    (Policy.route_class t 2 (p [ 2; 4 ]) = Some Policy.Customer_route);
  Alcotest.(check bool) "peer route" true
    (Policy.route_class t 2 (p [ 2; 3; 4 ]) = Some Policy.Peer_route);
  Alcotest.(check bool) "provider route" true
    (Policy.route_class t 2 (p [ 2; 0; 1; 3; 4 ]) = Some Policy.Provider_route);
  Alcotest.(check bool) "origin" true (Policy.route_class t 4 (p [ 4 ]) = Some Policy.Origin)

let test_export_rules () =
  let t = small () in
  let p nodes = Path.of_nodes nodes in
  (* M1's customer route to S goes to everyone. *)
  Alcotest.(check bool) "customer route to provider" true
    (Policy.exports t 2 (p [ 2; 4 ]) ~to_:0);
  Alcotest.(check bool) "customer route to peer" true
    (Policy.exports t 2 (p [ 2; 4 ]) ~to_:3);
  (* M1's peer route via M2 goes to customers only. *)
  Alcotest.(check bool) "peer route to provider refused" false
    (Policy.exports t 2 (p [ 2; 3; 4 ]) ~to_:0);
  Alcotest.(check bool) "peer route to customer" true
    (Policy.exports t 2 (p [ 2; 3; 4 ]) ~to_:4)

let test_gr_permitted_valley_free () =
  let t = small () in
  (* T1's routes to S must not contain a valley (down then up). *)
  let routes = Policy.gr_permitted t ~dest:4 0 in
  Alcotest.(check bool) "T1 has a route" true (routes <> []);
  List.iter
    (fun p ->
      Alcotest.(check bool) "simple" true (Path.is_simple p);
      (* no valley: once the path goes to a customer or peer, it never goes
         back up through a provider or peer *)
      let rec phases going_down = function
        | a :: (b :: _ as rest) ->
          (match Topology.relationship t ~of_:a b with
          | Some Topology.Customer -> phases true rest
          | Some Topology.Peer | Some Topology.Provider ->
            if going_down then Alcotest.failf "valley in %a" (Instance.pp_path (Policy.compile t ~dest:4)) p
            else phases (Topology.relationship t ~of_:a b = Some Topology.Peer) rest
          | None -> Alcotest.fail "non-adjacent hop")
        | _ -> ()
      in
      ignore (phases false (Path.to_nodes p)))
    routes

let test_gr_preference_order () =
  let t = small () in
  (* M1 prefers its direct customer route to S over the peer route via M2. *)
  match Policy.gr_permitted t ~dest:4 2 with
  | best :: _ ->
    Alcotest.(check (list int)) "customer route first" [ 2; 4 ] (Path.to_nodes best)
  | [] -> Alcotest.fail "M1 has no routes"

let test_compile_validates () =
  let t = small () in
  let inst = Policy.compile t ~dest:4 in
  Alcotest.(check (list (of_pp Fmt.nop))) "valid instance" [] (Instance.validate inst);
  Alcotest.(check bool) "no dispute wheel" false (Dispute.has_wheel inst)

let test_generated_topologies_wheel_free () =
  List.iter
    (fun seed ->
      let topo = Topology.generate { Topology.default_config with seed } in
      let dest = Topology.size topo - 1 in
      let inst = Policy.compile topo ~dest in
      Alcotest.(check (list (of_pp Fmt.nop)))
        (Printf.sprintf "valid (seed %d)" seed)
        [] (Instance.validate inst);
      if Dispute.has_wheel inst then
        Alcotest.failf "Gao-Rexford instance has a dispute wheel (seed %d)" seed)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_small_converges_all_models () =
  let t = small () in
  Alcotest.(check bool) "converges in all 24 models" true
    (Simulate.converges_in_all_models t ~dest:4)

let test_generated_converges () =
  List.iter
    (fun seed ->
      let topo = Topology.generate { Topology.default_config with seed } in
      let dest = Topology.size topo - 1 in
      List.iter
        (fun mname ->
          let r =
            Simulate.run topo ~dest ~model:(model mname)
              ~scheduler:Scheduler.round_robin
          in
          Alcotest.(check bool)
            (Printf.sprintf "converges %s (seed %d)" mname seed)
            true r.Simulate.converged;
          let inst = Policy.compile topo ~dest in
          Alcotest.(check bool)
            (Printf.sprintf "stable solution %s (seed %d)" mname seed)
            true
            (Assignment.is_solution inst r.Simulate.assignment))
        [ "R1O"; "RMS"; "REA"; "UMS" ])
    [ 11; 12; 13 ]

let test_export_policy_reduces_messages () =
  let t = small () in
  let with_policy =
    Simulate.run t ~dest:4 ~model:(model "RMS") ~scheduler:Scheduler.round_robin
  in
  let without =
    Simulate.run ~use_export_policy:false t ~dest:4 ~model:(model "RMS")
      ~scheduler:Scheduler.round_robin
  in
  Alcotest.(check bool) "both converge" true
    (with_policy.Simulate.converged && without.Simulate.converged);
  Alcotest.(check bool) "policy sends no more messages" true
    (with_policy.Simulate.messages <= without.Simulate.messages)

let test_config_mapping () =
  List.iter
    (fun (name, expected) ->
      let cfg = List.assoc name Config_map.presets in
      Alcotest.(check string) name expected (Config_map.describe cfg))
    [
      ("classic event-driven BGP", "R1O");
      ("BGP-4 specification queueing", "RMS");
      ("route-refresh polling", "REA");
      ("datagram path-vector (ad-hoc networks)", "UMS");
      ("per-session timer batching", "R1S");
    ]

let test_random_scheduler_on_bgp () =
  let topo = Topology.generate { Topology.default_config with seed = 42 } in
  let dest = Topology.size topo - 1 in
  let r =
    Simulate.run topo ~dest ~model:(model "RMS")
      ~scheduler:(fun inst m -> Scheduler.random inst m ~seed:5)
  in
  Alcotest.(check bool) "random schedule converges" true r.Simulate.converged


(* ------------------------------------------------------------------ *)
(* Property tests over generated topologies *)

let gen_seed = QCheck2.Gen.int_range 0 99_999

let prop_relationships_dual =
  QCheck2.Test.make ~name:"relationship views are dual" ~count:50 gen_seed (fun seed ->
      let t = Topology.generate { Topology.default_config with seed } in
      List.for_all
        (fun u ->
          List.for_all
            (fun v ->
              match (Topology.relationship t ~of_:u v, Topology.relationship t ~of_:v u) with
              | Some Topology.Customer, Some Topology.Provider -> true
              | Some Topology.Provider, Some Topology.Customer -> true
              | Some Topology.Peer, Some Topology.Peer -> true
              | None, None -> true
              | _ -> false)
            (List.init (Topology.size t) Fun.id))
        (List.init (Topology.size t) Fun.id))

let prop_permitted_are_exportable_chains =
  QCheck2.Test.make ~name:"gr_permitted paths are exportable at every hop" ~count:30
    gen_seed (fun seed ->
      let t = Topology.generate { Topology.default_config with seed } in
      let dest = Topology.size t - 1 in
      List.for_all
        (fun v ->
          List.for_all
            (fun p ->
              let rec ok = function
                | pred :: (next :: _ as rest) ->
                  Policy.exports t next (Path.of_nodes rest) ~to_:pred && ok rest
                | _ -> true
              in
              ok (Path.to_nodes p))
            (Policy.gr_permitted t ~dest v))
        (List.init (Topology.size t) Fun.id))

let prop_customer_routes_first =
  QCheck2.Test.make ~name:"customer routes always outrank peer/provider routes"
    ~count:30 gen_seed (fun seed ->
      let t = Topology.generate { Topology.default_config with seed } in
      let dest = Topology.size t - 1 in
      List.for_all
        (fun v ->
          let routes = Policy.gr_permitted t ~dest v in
          let classes =
            List.filter_map (fun p -> Policy.route_class t v p) routes
          in
          (* once a non-customer class appears, no later customer class *)
          let rec check seen_non_customer = function
            | [] -> true
            | Policy.Customer_route :: rest -> (not seen_non_customer) && check false rest
            | (Policy.Peer_route | Policy.Provider_route) :: rest -> check true rest
            | Policy.Origin :: rest -> check seen_non_customer rest
          in
          check false classes)
        (List.init (Topology.size t) Fun.id))

let prop_stub_destination_reachable =
  QCheck2.Test.make ~name:"every AS reaches the stub destination" ~count:30 gen_seed
    (fun seed ->
      let t = Topology.generate { Topology.default_config with seed } in
      let dest = Topology.size t - 1 in
      List.for_all
        (fun v -> v = dest || Policy.gr_permitted t ~dest v <> [])
        (List.init (Topology.size t) Fun.id))

(* The shared rows: ascending ids, [back] pointing at the node's own slot
   in each neighbor's row, and relationships that mirror across a link. *)
let prop_rows_consistent =
  QCheck2.Test.make ~name:"rows: back slots and mirrored relationships" ~count:40
    QCheck2.Gen.(pair gen_seed bool)
    (fun (seed, scaled) ->
      let t =
        if scaled then
          Topology.generate_scaled
            { Topology.s_tier1 = 3; s_tier2 = 12; s_stubs = 60; s_peer_links = 8; s_seed = seed }
        else Topology.generate { Topology.default_config with seed }
      in
      let { Topology.ids; rel; back } = Topology.rows t in
      let mirrored a b =
        match (a, b) with
        | Topology.Customer, Topology.Provider
        | Topology.Provider, Topology.Customer
        | Topology.Peer, Topology.Peer ->
          true
        | _ -> false
      in
      let slots = Array.fold_left (fun acc row -> acc + Array.length row) 0 ids in
      slots = 2 * List.length (Topology.edges t)
      && List.for_all
           (fun v ->
             Topology.neighbors t v = Array.to_list ids.(v)
             && List.for_all
                  (fun i ->
                    let u = ids.(v).(i) in
                    let j = back.(v).(i) in
                    (i = 0 || ids.(v).(i - 1) < u)
                    && ids.(u).(j) = v
                    && mirrored rel.(v).(i) rel.(u).(j)
                    && Topology.relationship t ~of_:v u = Some rel.(v).(i))
                  (List.init (Array.length ids.(v)) Fun.id))
           (List.init (Topology.size t) Fun.id))

let bgp_properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_relationships_dual;
      prop_rows_consistent;
      prop_permitted_are_exportable_chains;
      prop_customer_routes_first;
      prop_stub_destination_reachable;
    ]

let () =
  Alcotest.run "bgp"
    [
      ( "topology",
        [
          Alcotest.test_case "basics" `Quick test_topology_basics;
          Alcotest.test_case "rejects hierarchy cycles" `Quick test_topology_rejects_cycles;
          Alcotest.test_case "rejects malformed links, exact messages" `Quick
            test_topology_rejects_malformed;
        ] );
      ( "policy",
        [
          Alcotest.test_case "route classes" `Quick test_route_class;
          Alcotest.test_case "export rules" `Quick test_export_rules;
          Alcotest.test_case "valley-free permitted paths" `Quick
            test_gr_permitted_valley_free;
          Alcotest.test_case "preference order" `Quick test_gr_preference_order;
          Alcotest.test_case "compiled instance validates" `Quick test_compile_validates;
          Alcotest.test_case "generated topologies wheel-free" `Quick
            test_generated_topologies_wheel_free;
        ] );
      ( "simulate",
        [
          Alcotest.test_case "small topology, all 24 models" `Quick
            test_small_converges_all_models;
          Alcotest.test_case "generated topologies converge" `Slow test_generated_converges;
          Alcotest.test_case "export policy reduces messages" `Quick
            test_export_policy_reduces_messages;
          Alcotest.test_case "random scheduler" `Quick test_random_scheduler_on_bgp;
        ] );
      ( "config-map",
        [ Alcotest.test_case "BGP options to models" `Quick test_config_mapping ] );
      ("topology-properties", bgp_properties);
    ]

(* Tests for the routing-algebra layer: compilation to SPP instances and
   convergence of the stock algebras under the communication models. *)

open Spp
open Engine

let model s = Option.get (Model.of_string s)

(* A small labeled graph: a square with a diagonal, destination 0.

        1 --- 0
        |   / |
        2 --- 3
*)
let square ~label =
  {
    Algebra.names = [| "d"; "a"; "b"; "c" |];
    dest = 0;
    links =
      List.map
        (fun (u, v) -> (u, v, label u v, label v u))
        [ (0, 1); (0, 2); (0, 3); (1, 2); (2, 3) ];
  }

let test_shortest_paths_compile () =
  let g = square ~label:(fun _ _ -> 1) in
  let inst = Algebra.compile Algebra.shortest_paths g in
  Alcotest.(check (list (of_pp Fmt.nop))) "valid" [] (Instance.validate inst);
  (* a prefers its direct 1-hop route *)
  (match Instance.permitted inst 1 with
  | best :: _ -> Alcotest.(check (list int)) "direct first" [ 1; 0 ] (Path.to_nodes best)
  | [] -> Alcotest.fail "no routes");
  Alcotest.(check bool) "wheel-free" false (Dispute.has_wheel inst);
  Alcotest.(check bool) "solvable" true (Solver.is_solvable inst)

let test_shortest_paths_weighted () =
  (* Make the direct link from a to d expensive: a should prefer a-b-d. *)
  let g =
    square ~label:(fun u v -> if (u = 1 && v = 0) || (u = 0 && v = 1) then 10 else 1)
  in
  let inst = Algebra.compile Algebra.shortest_paths g in
  match Instance.permitted inst 1 with
  | best :: _ -> Alcotest.(check (list int)) "detour first" [ 1; 2; 0 ] (Path.to_nodes best)
  | [] -> Alcotest.fail "no routes"

let test_widest_paths () =
  (* Capacities: direct a-d is thin (1), a-b fat (10), b-d fat (10). *)
  let cap u v =
    match (min u v, max u v) with
    | 0, 1 -> 1
    | _ -> 10
  in
  let g = square ~label:cap in
  let inst = Algebra.compile Algebra.widest_paths g in
  (match Instance.permitted inst 1 with
  | best :: _ ->
    Alcotest.(check (list int)) "fat path first" [ 1; 2; 0 ] (Path.to_nodes best)
  | [] -> Alcotest.fail "no routes");
  Alcotest.(check bool) "solvable" true (Solver.is_solvable inst)

let test_gao_rexford_algebra_matches_policy () =
  (* The algebraic Gao-Rexford compilation must agree with the direct
     Policy.compile on the same topology. *)
  let topo = Bgp.Topology.generate { Bgp.Topology.default_config with seed = 13 } in
  let dest = Bgp.Topology.size topo - 1 in
  let n = Bgp.Topology.size topo in
  let to_label u v =
    (* label used when u extends a route beginning at v: v's relationship
       as seen from u *)
    match Bgp.Topology.relationship topo ~of_:u v with
    | Some Bgp.Topology.Customer -> Algebra.label_customer
    | Some Bgp.Topology.Peer -> Algebra.label_peer
    | Some Bgp.Topology.Provider -> Algebra.label_provider
    | None -> invalid_arg "not adjacent"
  in
  let g =
    {
      Algebra.names = Bgp.Topology.names topo;
      dest;
      links =
        List.map
          (fun (a, b, _) -> (a, b, to_label a b, to_label b a))
          (Bgp.Topology.edges topo);
    }
  in
  let algebraic = Algebra.compile ~max_len:n Algebra.gao_rexford g in
  let direct = Bgp.Policy.compile topo ~dest in
  (* Same permitted sets in the same preference order at every node. *)
  List.iter
    (fun v ->
      let show i =
        List.map (Path.to_string ~names:(Instance.names i)) (Instance.permitted i v)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "node %d" v)
        (show direct) (show algebraic))
    (Instance.nodes direct)

let test_monotone_algebras_converge_everywhere () =
  let g = square ~label:(fun _ _ -> 1) in
  List.iter
    (fun inst ->
      Alcotest.(check bool) "wheel-free" false (Dispute.has_wheel inst);
      List.iter
        (fun mname ->
          let m = model mname in
          let r = Executor.run ~validate:m inst (Scheduler.round_robin inst m) in
          Alcotest.(check bool) "converges" true (r.Executor.stop = Executor.Converged))
        [ "R1O"; "RMS"; "REA"; "UMS" ])
    [
      Algebra.compile Algebra.shortest_paths g;
      Algebra.compile Algebra.widest_paths g;
    ]

let test_lex_product () =
  (* Widest-shortest: prefer capacity, break ties by hop count.  With all
     capacities equal, it degenerates to shortest paths. *)
  let alg =
    Algebra.lex ~name:"widest-shortest" Algebra.widest_paths Algebra.shortest_paths
  in
  let g = square ~label:(fun _ _ -> 1) in
  let inst = Algebra.compile alg g in
  (match Instance.permitted inst 1 with
  | best :: _ -> Alcotest.(check (list int)) "direct first" [ 1; 0 ] (Path.to_nodes best)
  | [] -> Alcotest.fail "no routes");
  Alcotest.(check bool) "solvable" true (Solver.is_solvable inst)

let test_unsupported_paths_excluded () =
  (* Under Gao-Rexford labels, a peer-peer-peer chain is not supported. *)
  let g =
    {
      Algebra.names = [| "d"; "p"; "q" |];
      dest = 0;
      links =
        [
          (* d -- p peers, p -- q peers *)
          (0, 1, Algebra.label_peer, Algebra.label_peer);
          (1, 2, Algebra.label_peer, Algebra.label_peer);
        ];
    }
  in
  let inst = Algebra.compile Algebra.gao_rexford g in
  (* p reaches d directly (one peer hop), but q cannot: qpd needs p to
     export a peer route to a peer. *)
  Alcotest.(check int) "p has a route" 1 (List.length (Instance.permitted inst 1));
  Alcotest.(check int) "q has none" 0 (List.length (Instance.permitted inst 2))

let () =
  Alcotest.run "algebra"
    [
      ( "stock",
        [
          Alcotest.test_case "shortest paths" `Quick test_shortest_paths_compile;
          Alcotest.test_case "weighted shortest paths" `Quick test_shortest_paths_weighted;
          Alcotest.test_case "widest paths" `Quick test_widest_paths;
          Alcotest.test_case "Gao-Rexford algebra = policy compile" `Quick
            test_gao_rexford_algebra_matches_policy;
          Alcotest.test_case "monotone algebras converge" `Quick
            test_monotone_algebras_converge_everywhere;
          Alcotest.test_case "lexicographic product" `Quick test_lex_product;
          Alcotest.test_case "unsupported paths excluded" `Quick
            test_unsupported_paths_excluded;
        ] );
    ]

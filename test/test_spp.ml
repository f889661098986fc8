(* Tests for the SPP substrate: paths, instances, assignments, the solver,
   dispute wheels, the paper's gadgets and the random generators. *)

open Spp

let names = [| "d"; "x"; "y"; "z" |]

let path_testable =
  Alcotest.testable (Path.pp ~names:[| "d"; "a"; "b"; "c"; "e"; "f"; "g"; "h" |]) Path.equal

(* ------------------------------------------------------------------ *)
(* Path *)

let test_path_basics () =
  let p = Path.of_nodes [ 1; 2; 0 ] in
  Alcotest.(check (option int)) "source" (Some 1) (Path.source p);
  Alcotest.(check (option int)) "destination" (Some 0) (Path.destination p);
  Alcotest.(check (option int)) "next hop" (Some 2) (Path.next_hop p);
  Alcotest.(check int) "length" 2 (Path.length p);
  Alcotest.(check bool) "simple" true (Path.is_simple p);
  Alcotest.(check bool) "contains 2" true (Path.contains 2 p);
  Alcotest.(check bool) "not contains 3" false (Path.contains 3 p)

let test_path_epsilon () =
  Alcotest.(check bool) "epsilon empty" true (Path.is_epsilon Path.epsilon);
  Alcotest.(check (option int)) "no source" None (Path.source Path.epsilon);
  Alcotest.(check int) "length 0" 0 (Path.length Path.epsilon);
  Alcotest.(check bool) "epsilon simple" true (Path.is_simple Path.epsilon);
  Alcotest.check_raises "extend epsilon"
    (Invalid_argument "Path.extend: cannot extend the empty path") (fun () ->
      ignore (Path.extend 1 Path.epsilon))

let test_path_extend () =
  let p = Path.of_nodes [ 2; 0 ] in
  let q = Path.extend 1 p in
  Alcotest.(check path_testable) "extend" (Path.of_nodes [ 1; 2; 0 ]) q;
  let loop = Path.extend 2 q in
  Alcotest.(check bool) "loop not simple" false (Path.is_simple loop)

let test_path_affixes () =
  let p = Path.of_nodes [ 1; 2; 3; 0 ] in
  Alcotest.(check (option path_testable)) "suffix from 2"
    (Some (Path.of_nodes [ 2; 3; 0 ]))
    (Path.suffix_from 2 p);
  Alcotest.(check (option path_testable)) "suffix missing" None (Path.suffix_from 7 p);
  Alcotest.(check (option path_testable)) "prefix to 3"
    (Some (Path.of_nodes [ 1; 2; 3 ]))
    (Path.prefix_to 3 p);
  Alcotest.(check (option path_testable)) "prefix missing" None (Path.prefix_to 7 p)

let test_path_pp () =
  let inst = Gadgets.disagree in
  Alcotest.(check string) "pp xyd" "xyd"
    (Path.to_string ~names:(Instance.names inst) (Gadgets.path inst "xyd"));
  Alcotest.(check string) "pp epsilon" "\xCE\xB5"
    (Path.to_string ~names:(Instance.names inst) Path.epsilon)

(* ------------------------------------------------------------------ *)
(* Instance *)

let simple_instance () =
  Instance.make ~names ~dest:0
    ~edges:[ (0, 1); (0, 2); (1, 2); (2, 3) ]
    ~permitted:
      [
        (1, [ [ 1; 2; 0 ]; [ 1; 0 ] ]);
        (2, [ [ 2; 0 ] ]);
        (3, [ [ 3; 2; 0 ] ]);
      ]

let test_instance_accessors () =
  let t = simple_instance () in
  Alcotest.(check int) "size" 4 (Instance.size t);
  Alcotest.(check int) "dest" 0 (Instance.dest t);
  Alcotest.(check (list int)) "neighbors of 2" [ 0; 1; 3 ] (Instance.neighbors t 2);
  Alcotest.(check bool) "adjacent" true (Instance.are_adjacent t 1 2);
  Alcotest.(check bool) "not adjacent" false (Instance.are_adjacent t 1 3);
  Alcotest.(check int) "channels" 8 (List.length (Instance.channels t));
  Alcotest.(check int) "edges" 4 (List.length (Instance.edges t))

let test_instance_ranks () =
  let t = simple_instance () in
  Alcotest.(check (option int)) "rank of preferred" (Some 0)
    (Instance.rank t 1 (Path.of_nodes [ 1; 2; 0 ]));
  Alcotest.(check (option int)) "rank of fallback" (Some 1)
    (Instance.rank t 1 (Path.of_nodes [ 1; 0 ]));
  Alcotest.(check (option int)) "unknown path" None
    (Instance.rank t 1 (Path.of_nodes [ 1; 2; 3; 0 ]));
  Alcotest.(check bool) "permitted" true
    (Instance.is_permitted t 3 (Path.of_nodes [ 3; 2; 0 ]))

let test_instance_best () =
  let t = simple_instance () in
  let best =
    Instance.best t 1 [ Path.of_nodes [ 1; 0 ]; Path.of_nodes [ 1; 2; 0 ] ]
  in
  Alcotest.(check path_testable) "best" (Path.of_nodes [ 1; 2; 0 ]) best;
  Alcotest.(check path_testable) "best of none" Path.epsilon
    (Instance.best t 1 [ Path.of_nodes [ 1; 3; 0 ] ])

let test_instance_dest_trivial () =
  let t = simple_instance () in
  Alcotest.(check (list path_testable)) "dest permitted"
    [ Path.of_nodes [ 0 ] ]
    (Instance.permitted t 0)

let test_instance_validation () =
  (* Non-simple path *)
  Alcotest.check_raises "non-simple"
    (Invalid_argument "Instance: xyxd at x is not simple")
    (fun () ->
      ignore
        (Instance.make ~names:[| "d"; "x"; "y" |] ~dest:0
           ~edges:[ (0, 1); (0, 2); (1, 2) ]
           ~permitted:[ (1, [ [ 1; 2; 1; 0 ] ]) ]));
  (* Not a graph path *)
  (try
     ignore
       (Instance.make ~names:[| "d"; "x"; "y" |] ~dest:0
          ~edges:[ (0, 1); (0, 2) ]
          ~permitted:[ (1, [ [ 1; 2; 0 ] ]) ]);
     Alcotest.fail "expected invalid_arg"
   with Invalid_argument _ -> ());
  (* Rank tie through different next hops *)
  try
    ignore
      (Instance.of_ranked ~names:[| "d"; "x"; "y" |] ~dest:0
         ~edges:[ (0, 1); (0, 2); (1, 2) ]
         ~ranked:
           [ (1, [ (Path.of_nodes [ 1; 0 ], 0); (Path.of_nodes [ 1; 2; 0 ], 0) ]) ]);
    Alcotest.fail "expected invalid_arg (rank tie)"
  with Invalid_argument _ -> ()

let test_find_node () =
  let t = simple_instance () in
  Alcotest.(check int) "find z" 3 (Instance.find_node t "z");
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Instance.find_node t "w"))

(* ------------------------------------------------------------------ *)
(* Assignment *)

let test_assignment_solution () =
  let t = simple_instance () in
  let a =
    Assignment.of_list t
      [
        (1, Path.of_nodes [ 1; 2; 0 ]);
        (2, Path.of_nodes [ 2; 0 ]);
        (3, Path.of_nodes [ 3; 2; 0 ]);
      ]
  in
  Alcotest.(check bool) "is solution" true (Assignment.is_solution t a);
  Alcotest.(check path_testable) "dest trivial" (Path.of_nodes [ 0 ])
    (Assignment.get a 0)

let test_assignment_unstable () =
  let t = simple_instance () in
  let a =
    Assignment.of_list t
      [
        (1, Path.of_nodes [ 1; 0 ]);
        (2, Path.of_nodes [ 2; 0 ]);
        (3, Path.of_nodes [ 3; 2; 0 ]);
      ]
  in
  (* 1 would prefer 120 since 2 has 20. *)
  Alcotest.(check bool) "unstable" false (Assignment.is_solution t a);
  match Assignment.violations t a with
  | [ Assignment.Unstable (1, p) ] ->
    Alcotest.(check path_testable) "preferred" (Path.of_nodes [ 1; 2; 0 ]) p
  | other ->
    Alcotest.failf "unexpected violations: %d" (List.length other)

let test_assignment_inconsistent () =
  let t = simple_instance () in
  let a =
    Assignment.of_list t
      [ (1, Path.of_nodes [ 1; 2; 0 ]); (3, Path.of_nodes [ 3; 2; 0 ]) ]
  in
  (* 2 has epsilon: both 1 and 3 are inconsistent, and 2 is unstable. *)
  let vs = Assignment.violations t a in
  Alcotest.(check bool) "has inconsistency" true
    (List.exists (function Assignment.Inconsistent _ -> true | _ -> false) vs)

let test_assignment_epsilon_unstable () =
  let t = simple_instance () in
  let a = Assignment.all_epsilon t in
  (* 2 could pick 20 but has epsilon. *)
  Alcotest.(check bool) "all-epsilon unstable" false (Assignment.is_solution t a)

(* ------------------------------------------------------------------ *)
(* Solver + gadgets *)

let test_disagree_two_solutions () =
  let sols = Solver.solutions Gadgets.disagree in
  Alcotest.(check int) "two stable solutions" 2 (List.length sols);
  let inst = Gadgets.disagree in
  let as_strings a =
    List.map
      (fun (v, p) -> Path.to_string ~names:(Instance.names inst) p |> fun s ->
        Instance.name inst v ^ ":" ^ s)
      (Assignment.to_list a)
  in
  let flat = List.concat_map as_strings sols in
  Alcotest.(check bool) "contains xyd" true (List.mem "x:xyd" flat);
  Alcotest.(check bool) "contains yxd" true (List.mem "y:yxd" flat)

let test_bad_gadget_unsolvable () =
  Alcotest.(check bool) "BAD GADGET unsolvable" false
    (Solver.is_solvable Gadgets.bad_gadget)

let test_good_gadget_unique () =
  Alcotest.(check int) "GOOD GADGET one solution" 1
    (Solver.count_solutions Gadgets.good_gadget)

let test_fig_gadget_solutions () =
  (* The separation gadgets are all solvable (they converge in at least one
     model), and FIG6 converges to a unique assignment in polling models. *)
  List.iter
    (fun (name, inst) ->
      Alcotest.(check bool) (name ^ " solvable") true (Solver.is_solvable inst))
    [
      ("FIG6", Gadgets.fig6);
      ("FIG7", Gadgets.fig7);
      ("FIG8", Gadgets.fig8);
      ("FIG9", Gadgets.fig9);
    ]

let test_fig6_solutions_shape () =
  let inst = Gadgets.fig6 in
  let sols = Solver.solutions inst in
  (* Example A.2's case analysis reaches exactly the two converged states
     (d, xd, yd, zd, azd, uvazd, vazd) and (d, xd, yd, zd, azd, uazd, vuazd). *)
  Alcotest.(check int) "two stable solutions" 2 (List.length sols);
  let a_node = Gadgets.node inst 'a' in
  List.iter
    (fun a ->
      Alcotest.(check bool) "a uses azd" true
        (Path.equal (Assignment.get a a_node) (Gadgets.path inst "azd")))
    sols

let test_greedy_on_good_gadget () =
  let inst = Gadgets.good_gadget in
  let a = Solver.greedy inst in
  Alcotest.(check bool) "greedy finds the solution" true
    (Assignment.is_solution inst a)

let test_shortest_paths_solvable () =
  let inst = Gadgets.shortest_paths ~n:5 in
  Alcotest.(check bool) "solvable" true (Solver.is_solvable inst);
  Alcotest.(check bool) "no wheel" false (Dispute.has_wheel inst)

(* ------------------------------------------------------------------ *)
(* Dispute wheels *)

let test_dispute_disagree () =
  match Dispute.find Gadgets.disagree with
  | Some wheel ->
    Alcotest.(check bool) "wheel checks" true
      (Dispute.check_wheel Gadgets.disagree wheel)
  | None -> Alcotest.fail "DISAGREE must have a dispute wheel"

let test_dispute_bad_gadget () =
  Alcotest.(check bool) "BAD GADGET has wheel" true (Dispute.has_wheel Gadgets.bad_gadget)

let test_dispute_good_gadget () =
  Alcotest.(check bool) "GOOD GADGET wheel-free" false
    (Dispute.has_wheel Gadgets.good_gadget)

let test_dispute_fig6 () =
  (* FIG6 embeds a DISAGREE-like conflict between u and v. *)
  Alcotest.(check bool) "FIG6 has wheel" true (Dispute.has_wheel Gadgets.fig6)

let test_check_wheel_rejects_garbage () =
  let inst = Gadgets.disagree in
  Alcotest.(check bool) "empty wheel" false (Dispute.check_wheel inst []);
  let bogus =
    [
      Dispute.{
        pivot = Gadgets.node inst 'x';
        direct = Gadgets.path inst "xd";
        rim_route = Gadgets.path inst "xd";
      };
    ]
  in
  Alcotest.(check bool) "bogus wheel" false (Dispute.check_wheel inst bogus)

(* ------------------------------------------------------------------ *)
(* Generators (property tests) *)

let gen_config =
  QCheck2.Gen.(
    let* nodes = int_range 3 7 in
    let* extra_edges = int_range 0 4 in
    let* max_paths = int_range 1 4 in
    let* max_len = int_range 2 4 in
    let* seed = int_range 0 1_000_000 in
    return
      Generator.
        {
          nodes;
          extra_edges;
          max_paths_per_node = max_paths;
          max_path_len = max_len;
          seed;
        })

let prop_generated_instances_valid =
  QCheck2.Test.make ~name:"generated instances validate" ~count:100 gen_config
    (fun cfg ->
      let inst = Generator.instance cfg in
      Instance.validate inst = [])

let prop_safe_instances_wheel_free =
  QCheck2.Test.make ~name:"safe instances have no dispute wheel" ~count:60 gen_config
    (fun cfg -> not (Dispute.has_wheel (Generator.safe_instance cfg)))

let prop_safe_instances_solvable =
  QCheck2.Test.make ~name:"safe instances are solvable" ~count:40 gen_config
    (fun cfg ->
      let cfg = { cfg with nodes = min cfg.nodes 6 } in
      Solver.is_solvable (Generator.safe_instance cfg))

let prop_solver_solutions_are_solutions =
  QCheck2.Test.make ~name:"solver output satisfies is_solution" ~count:40 gen_config
    (fun cfg ->
      let cfg = { cfg with nodes = min cfg.nodes 6 } in
      let inst = Generator.instance cfg in
      List.for_all (Assignment.is_solution inst) (Solver.solutions inst))

let prop_unsolvable_implies_wheel =
  (* Contrapositive of "no dispute wheel => solvable" (GSW). *)
  QCheck2.Test.make ~name:"unsolvable implies dispute wheel" ~count:40 gen_config
    (fun cfg ->
      let cfg = { cfg with nodes = min cfg.nodes 6 } in
      let inst = Generator.instance cfg in
      Solver.is_solvable inst || Dispute.has_wheel inst)

let prop_best_is_minimal_rank =
  QCheck2.Test.make ~name:"best returns a minimal-rank candidate" ~count:100 gen_config
    (fun cfg ->
      let inst = Generator.instance cfg in
      List.for_all
        (fun v ->
          if v = Instance.dest inst then true
          else
            let candidates = Instance.permitted inst v in
            let b = Instance.best inst v candidates in
            match candidates with
            | [] -> Path.is_epsilon b
            | first :: _ -> (
              (* permitted lists are sorted by rank *)
              match (Instance.rank inst v b, Instance.rank inst v first) with
              | Some rb, Some rf -> rb = rf
              | _ -> false))
        (Instance.nodes inst))

let prop_paths_simple_in_generated =
  QCheck2.Test.make ~name:"generated permitted paths are simple graph paths"
    ~count:100 gen_config (fun cfg ->
      let inst = Generator.instance cfg in
      List.for_all
        (fun (_, p, _) -> Path.is_simple p)
        (Instance.all_permitted inst))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_generated_instances_valid;
      prop_safe_instances_wheel_free;
      prop_safe_instances_solvable;
      prop_solver_solutions_are_solutions;
      prop_unsolvable_implies_wheel;
      prop_best_is_minimal_rank;
      prop_paths_simple_in_generated;
    ]


(* ------------------------------------------------------------------ *)
(* Additional path properties *)

let gen_nodes = QCheck2.Gen.(list_size (int_range 1 6) (int_range 0 9))

let prop_extend_next_hop =
  QCheck2.Test.make ~name:"next hop of extension is old source" ~count:100 gen_nodes
    (fun nodes ->
      let p = Path.of_nodes nodes in
      match Path.source p with
      | None -> true
      | Some s ->
        let q = Path.extend 42 p in
        Path.next_hop q = Some s && Path.length q = Path.length p + 1)

let prop_suffix_prefix_glue =
  QCheck2.Test.make ~name:"prefix_to ++ suffix_from reassemble the path" ~count:100
    gen_nodes (fun nodes ->
      let p = Path.of_nodes nodes in
      List.for_all
        (fun v ->
          match (Path.prefix_to v p, Path.suffix_from v p) with
          | Some pre, Some suf ->
            (* glued at v: pre ends with v, suf starts with v *)
            Path.destination pre = Some v
            && Path.source suf = Some v
            && Path.equal p
                 (Path.of_nodes
                    (Path.to_nodes pre @ List.tl (Path.to_nodes suf)))
          | _ -> not (Path.contains v p))
        (List.sort_uniq compare nodes))

let prop_simple_iff_nodup =
  QCheck2.Test.make ~name:"is_simple iff no duplicate nodes" ~count:100 gen_nodes
    (fun nodes ->
      Path.is_simple (Path.of_nodes nodes)
      = (List.length (List.sort_uniq compare nodes) = List.length nodes))

(* ------------------------------------------------------------------ *)
(* Gadget structure *)

let test_gadget_shapes () =
  let count_paths inst =
    List.length (Instance.all_permitted inst) - 1 (* minus the trivial dest path *)
  in
  Alcotest.(check int) "DISAGREE permitted" 4 (count_paths Gadgets.disagree);
  Alcotest.(check int) "FIG6 permitted" 13 (count_paths Gadgets.fig6);
  Alcotest.(check int) "FIG7 permitted" 9 (count_paths Gadgets.fig7);
  Alcotest.(check int) "FIG8 permitted" 6 (count_paths Gadgets.fig8);
  Alcotest.(check int) "FIG9 permitted" 8 (count_paths Gadgets.fig9);
  List.iter
    (fun (name, inst) ->
      Alcotest.(check (list (of_pp Fmt.nop))) (name ^ " validates") []
        (Instance.validate inst))
    (Gadgets.all_named ())

let test_fig6_u_refuses_y_paths () =
  (* "u refuses paths containing y" (Ex. A.2). *)
  let inst = Gadgets.fig6 in
  let u = Gadgets.node inst 'u' and y = Gadgets.node inst 'y' in
  List.iter
    (fun p ->
      if Path.contains y p then Alcotest.failf "u permits a path through y")
    (Instance.permitted inst u)

let test_fig9_preference_structure () =
  (* scbd > sxd > scad at s; cad > cbd at c (Ex. A.5). *)
  let inst = Gadgets.fig9 in
  let s = Gadgets.node inst 's' and c = Gadgets.node inst 'c' in
  let rank n p = Option.get (Instance.rank inst n (Gadgets.path inst p)) in
  Alcotest.(check bool) "scbd > sxd" true (rank s "scbd" < rank s "sxd");
  Alcotest.(check bool) "sxd > scad" true (rank s "sxd" < rank s "scad");
  Alcotest.(check bool) "cad > cbd" true (rank c "cad" < rank c "cbd")

let test_solver_limit () =
  let sols = Solver.solutions ~limit:1 Gadgets.disagree in
  Alcotest.(check int) "limit respected" 1 (List.length sols)

let prop_solutions_distinct =
  QCheck2.Test.make ~name:"solver returns distinct solutions" ~count:30
    QCheck2.Gen.(int_range 0 9999)
    (fun seed ->
      let inst = Generator.instance { Generator.default with nodes = 5; seed } in
      let sols = Solver.solutions inst in
      let rec distinct = function
        | [] -> true
        | a :: rest -> (not (List.exists (Assignment.equal a) rest)) && distinct rest
      in
      distinct sols)

let extra_qcheck =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_extend_next_hop;
      prop_suffix_prefix_glue;
      prop_simple_iff_nodup;
      prop_solutions_distinct;
    ]

(* ------------------------------------------------------------------ *)
(* Arena: hash-consed path interning *)

let test_arena_canonical_ids () =
  let nodes = [ 1; 2; 0 ] in
  let a = Arena.of_nodes nodes and b = Arena.intern (Path.of_nodes nodes) in
  Alcotest.(check int) "same id for equal paths" a b;
  Alcotest.(check bool) "materializes back" true
    (Path.equal (Arena.path a) (Path.of_nodes nodes));
  Alcotest.(check (list int)) "round-trips nodes" nodes (Arena.to_nodes a);
  Alcotest.(check bool) "distinct paths, distinct ids" false
    (Arena.equal a (Arena.of_nodes [ 2; 0 ]));
  Alcotest.(check int) "epsilon is id 0" Arena.epsilon (Arena.of_nodes []);
  Alcotest.(check bool) "intern epsilon" true (Arena.is_epsilon (Arena.intern Path.epsilon))

let test_arena_extend_suffix () =
  let tail = Arena.of_nodes [ 2; 0 ] in
  let ext = Arena.extend 1 tail in
  Alcotest.(check int) "extend = of_nodes" (Arena.of_nodes [ 1; 2; 0 ]) ext;
  Alcotest.(check int) "suffix undoes extend" tail (Arena.suffix ext);
  Alcotest.(check (option int)) "next hop" (Some 2) (Arena.next_hop ext);
  Alcotest.(check int) "length" 2 (Arena.length ext);
  (match Arena.extend 1 Arena.epsilon with
  | exception Invalid_argument _ -> ()
  | (_ : Arena.id) -> Alcotest.fail "extend of epsilon accepted");
  Alcotest.(check bool) "contains source" true (Arena.contains 1 ext);
  Alcotest.(check bool) "contains inner" true (Arena.contains 2 ext);
  Alcotest.(check bool) "not contains" false (Arena.contains 7 ext);
  (* Nodes beyond the bitmask width exercise the list-walk fallback. *)
  let big = Arena.of_nodes [ 100; 63; 0 ] in
  Alcotest.(check bool) "contains above mask" true (Arena.contains 100 big);
  Alcotest.(check bool) "not contains above mask" false (Arena.contains 99 big)

let prop_arena_intern_roundtrip =
  QCheck2.Test.make ~name:"arena intern/materialize round-trip" ~count:300
    QCheck2.Gen.(list_size (int_range 0 8) (int_range 0 200))
    (fun nodes ->
      let p = Path.of_nodes nodes in
      let id = Arena.intern p in
      Path.equal (Arena.path id) p
      && Arena.equal id (Arena.intern p)
      && Arena.compare_structural id (Arena.intern p) = 0
      && List.for_all (fun v -> Arena.contains v id = Path.contains v p) (0 :: nodes))

(* Node ids up to the key's 22-bit cap, small ones too (the bitmask
   path), and many heads on one shared tail: such keys differ only in
   their high bits, which the intern table's hash must still spread. *)
let prop_arena_ids_canonical =
  let node = QCheck2.Gen.(oneof [ int_range 0 70; int_range 0 ((1 lsl 22) - 1) ]) in
  QCheck2.Test.make ~name:"arena ids canonical, accessors agree with the lists" ~count:200
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 5) node)
        (list_size (int_range 1 40) node)
        (list_size (int_range 0 12) (list_size (int_range 0 4) (oneof [ int_range 0 3; node ]))))
    (fun (tail, heads, others) ->
      let lists = (tail :: List.map (fun h -> h :: tail) heads) @ others in
      let ids = List.map Arena.of_nodes lists in
      let probes = List.sort_uniq compare (List.concat lists) in
      let agrees l id =
        Arena.to_nodes id = l
        && Arena.length id = max 0 (List.length l - 1)
        && (match l with
           | [] -> Arena.is_epsilon id
           | _ :: rest -> Arena.to_nodes (Arena.suffix id) = rest)
        && List.for_all (fun v -> Arena.contains v id = List.mem v l) probes
      in
      List.for_all2 agrees lists ids
      && List.for_all2
           (fun l id -> List.for_all2 (fun l' id' -> (l = l') = (id = id')) lists ids)
           lists ids)

let () =
  Alcotest.run "spp"
    [
      ( "path",
        [
          Alcotest.test_case "basics" `Quick test_path_basics;
          Alcotest.test_case "epsilon" `Quick test_path_epsilon;
          Alcotest.test_case "extend" `Quick test_path_extend;
          Alcotest.test_case "affixes" `Quick test_path_affixes;
          Alcotest.test_case "pretty-printing" `Quick test_path_pp;
        ] );
      ( "arena",
        [
          Alcotest.test_case "canonical ids" `Quick test_arena_canonical_ids;
          Alcotest.test_case "extend/suffix/contains" `Quick test_arena_extend_suffix;
          QCheck_alcotest.to_alcotest prop_arena_intern_roundtrip;
          QCheck_alcotest.to_alcotest prop_arena_ids_canonical;
        ] );
      ( "instance",
        [
          Alcotest.test_case "accessors" `Quick test_instance_accessors;
          Alcotest.test_case "ranks" `Quick test_instance_ranks;
          Alcotest.test_case "best choice" `Quick test_instance_best;
          Alcotest.test_case "dest trivial path" `Quick test_instance_dest_trivial;
          Alcotest.test_case "validation" `Quick test_instance_validation;
          Alcotest.test_case "find_node" `Quick test_find_node;
        ] );
      ( "assignment",
        [
          Alcotest.test_case "solution accepted" `Quick test_assignment_solution;
          Alcotest.test_case "instability detected" `Quick test_assignment_unstable;
          Alcotest.test_case "inconsistency detected" `Quick test_assignment_inconsistent;
          Alcotest.test_case "all-epsilon unstable" `Quick test_assignment_epsilon_unstable;
        ] );
      ( "solver",
        [
          Alcotest.test_case "DISAGREE has two solutions" `Quick test_disagree_two_solutions;
          Alcotest.test_case "BAD GADGET unsolvable" `Quick test_bad_gadget_unsolvable;
          Alcotest.test_case "GOOD GADGET unique" `Quick test_good_gadget_unique;
          Alcotest.test_case "figure gadgets solvable" `Quick test_fig_gadget_solutions;
          Alcotest.test_case "FIG6 solutions shape" `Quick test_fig6_solutions_shape;
          Alcotest.test_case "greedy on GOOD GADGET" `Quick test_greedy_on_good_gadget;
          Alcotest.test_case "shortest-paths baseline" `Quick test_shortest_paths_solvable;
        ] );
      ( "dispute",
        [
          Alcotest.test_case "DISAGREE wheel" `Quick test_dispute_disagree;
          Alcotest.test_case "BAD GADGET wheel" `Quick test_dispute_bad_gadget;
          Alcotest.test_case "GOOD GADGET wheel-free" `Quick test_dispute_good_gadget;
          Alcotest.test_case "FIG6 wheel" `Quick test_dispute_fig6;
          Alcotest.test_case "check_wheel rejects garbage" `Quick
            test_check_wheel_rejects_garbage;
        ] );
      ("properties", qcheck_cases @ extra_qcheck);
      ( "structure",
        [
          Alcotest.test_case "gadget shapes" `Quick test_gadget_shapes;
          Alcotest.test_case "FIG6 u refuses y" `Quick test_fig6_u_refuses_y_paths;
          Alcotest.test_case "FIG9 preferences" `Quick test_fig9_preference_structure;
          Alcotest.test_case "solver limit" `Quick test_solver_limit;
        ] );
    ]

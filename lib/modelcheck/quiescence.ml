open Engine

let quiescent_assignments ?config ?domains inst model =
  let graph = Explore.explore_compact ?config ?domains inst model in
  let assignments =
    Array.to_list graph.Explore.states
    |> List.filter (State.is_quiescent inst)
    |> List.map (State.assignment inst)
  in
  let rec dedupe = function
    | [] -> []
    | a :: rest ->
      a :: dedupe (List.filter (fun b -> not (Spp.Assignment.equal a b)) rest)
  in
  List.sort Spp.Assignment.compare (dedupe assignments)

let reachable_solutions ?config ?domains inst model =
  List.filter (Spp.Assignment.is_solution inst)
    (quiescent_assignments ?config ?domains inst model)

let stale_quiescent_assignments ?config ?domains inst model =
  List.filter
    (fun a -> not (Spp.Assignment.is_solution inst a))
    (quiescent_assignments ?config ?domains inst model)

let solution_count ?config ?domains inst model =
  List.length (reachable_solutions ?config ?domains inst model)

(* The fair-cycle search as it stood before [Modelcheck.Fair], kept only as
   an oracle for the kernel's tests.  It is the protocol-generic version of
   that search (the SPP one is the same with [stuck_ok] always false): a
   whole-graph Tarjan run per component, channel sets as [Set]s.  Quadratic
   on large graphs; use it on small ones. *)

open Engine
open Modelcheck

type edge = { dst : int; label : Enumerate.labeled }

module CS = Set.Make (struct
  type t = Channel.id

  let compare = Channel.compare_id
end)

let evaluate ~n ~differs ~tracked ~stuck_ok nodes edges =
  let reads =
    List.fold_left
      (fun acc (_, (e : edge)) ->
        List.fold_left (fun acc c -> CS.add c acc) acc e.label.Enumerate.reads)
      CS.empty edges
  in
  let all_read = List.for_all (fun c -> CS.mem c reads) tracked in
  let obs_changes =
    match nodes with
    | [] -> false
    | first :: rest -> List.exists (fun other -> differs first other) rest
  in
  let stuck = (not obs_changes) && List.for_all stuck_ok nodes in
  if not (all_read && (obs_changes || stuck)) then None
  else begin
    let adj = Array.make n [] in
    List.iter (fun (src, (e : edge)) -> adj.(src) <- (e.dst, e) :: adj.(src)) edges;
    let path_entries path = List.map (fun (e : edge) -> e.label.Enumerate.entry) path in
    let bfs ~src ~dst =
      let prev = Array.make n None in
      let seen = Array.make n false in
      let q = Queue.create () in
      seen.(src) <- true;
      Queue.add src q;
      while (not seen.(dst)) && not (Queue.is_empty q) do
        let v = Queue.pop q in
        List.iter
          (fun ((w, e) : int * edge) ->
            if not seen.(w) then begin
              seen.(w) <- true;
              prev.(w) <- Some (v, e);
              Queue.add w q
            end)
          adj.(v)
      done;
      if not seen.(dst) then None
      else begin
        let rec build acc v =
          match prev.(v) with None -> acc | Some (u, e) -> build (e :: acc) u
        in
        Some (build [] dst)
      end
    in
    let start = List.hd nodes in
    let loop_via (src, (e : edge)) =
      match (bfs ~src:start ~dst:src, bfs ~src:e.dst ~dst:start) with
      | Some p1, Some p2 -> Some (p1 @ [ e ] @ p2)
      | _ -> None
    in
    let walk = ref [] in
    let ok = ref true in
    let append_loop edge =
      match loop_via edge with Some l -> walk := !walk @ l | None -> ok := false
    in
    (if obs_changes then
       match List.find_opt (fun other -> differs start other) nodes with
       | Some s2 -> (
         match (bfs ~src:start ~dst:s2, bfs ~src:s2 ~dst:start) with
         | Some p1, Some p2 -> walk := p1 @ p2
         | _ -> ok := false)
       | None -> ok := false
     else
       match List.find_opt (fun (src, _) -> src = start) edges with
       | Some edge -> append_loop edge
       | None -> ok := false);
    let covered () =
      List.fold_left
        (fun acc (e : edge) ->
          List.fold_left (fun acc c -> CS.add c acc) acc e.label.Enumerate.reads)
        CS.empty !walk
    in
    List.iter
      (fun c ->
        if !ok && not (CS.mem c (covered ())) then begin
          let reader =
            List.find_opt
              (fun (_, (e : edge)) ->
                List.exists (Channel.equal_id c) e.label.Enumerate.reads)
              edges
          in
          match reader with Some edge -> append_loop edge | None -> ok := false
        end)
      tracked;
    (* Each round cleans every missing channel or fails, so [cleans] grows
       until nothing is missing. *)
    let rec fix_drops () =
      if !ok then begin
        let drops, cleans =
          List.fold_left
            (fun (d, k) (e : edge) ->
              ( List.fold_left (fun d c -> CS.add c d) d e.label.Enumerate.drops,
                List.fold_left (fun k c -> CS.add c k) k e.label.Enumerate.cleans ))
            (CS.empty, CS.empty) !walk
        in
        let missing = CS.diff drops cleans in
        if not (CS.is_empty missing) then begin
          CS.iter
            (fun c ->
              let cleaner =
                List.find_opt
                  (fun (_, (e : edge)) ->
                    List.exists (Channel.equal_id c) e.label.Enumerate.cleans)
                  edges
              in
              match cleaner with Some edge -> append_loop edge | None -> ok := false)
            missing;
          fix_drops ()
        end
      end
    in
    fix_drops ();
    let final_drops, final_cleans, final_reads =
      List.fold_left
        (fun (d, k, r) (e : edge) ->
          ( List.fold_left (fun d c -> CS.add c d) d e.label.Enumerate.drops,
            List.fold_left (fun k c -> CS.add c k) k e.label.Enumerate.cleans,
            List.fold_left (fun r c -> CS.add c r) r e.label.Enumerate.reads ))
        (CS.empty, CS.empty, CS.empty) !walk
    in
    if
      !ok && !walk <> []
      && CS.subset final_drops final_cleans
      && List.for_all (fun c -> CS.mem c final_reads) tracked
    then Some (start, path_entries !walk)
    else None
  end

let rec search ~n ~differs ~tracked ~stuck_ok edges =
  let cleans =
    List.fold_left
      (fun acc (_, (e : edge)) ->
        List.fold_left (fun acc c -> CS.add c acc) acc e.label.Enumerate.cleans)
      CS.empty edges
  in
  let keep (_, (e : edge)) = List.for_all (fun c -> CS.mem c cleans) e.label.Enumerate.drops in
  let kept = List.filter keep edges in
  split_sccs ~n ~differs ~tracked ~stuck_ok kept
    ~recurse:(List.length kept <> List.length edges)

and split_sccs ~n ~differs ~tracked ~stuck_ok edges ~recurse =
  if edges = [] then None
  else begin
    let adj = Array.make n [] in
    List.iter (fun (src, (e : edge)) -> adj.(src) <- e.dst :: adj.(src)) edges;
    let comp, _ = Scc.tarjan n (fun i -> adj.(i)) in
    let by_comp = Hashtbl.create 17 in
    List.iter
      (fun ((src, (e : edge)) as edge) ->
        if comp.(src) = comp.(e.dst) then begin
          let k = comp.(src) in
          Hashtbl.replace by_comp k (edge :: Option.value ~default:[] (Hashtbl.find_opt by_comp k))
        end)
      edges;
    Hashtbl.fold
      (fun _ comp_edges acc ->
        match acc with
        | Some _ -> acc
        | None ->
          let nodes =
            List.sort_uniq compare
              (List.concat_map (fun (src, (e : edge)) -> [ src; e.dst ]) comp_edges)
          in
          if recurse then search ~n ~differs ~tracked ~stuck_ok comp_edges
          else evaluate ~n ~differs ~tracked ~stuck_ok nodes comp_edges)
      by_comp None
  end

(* [adjacency.(i)] lists state i's edges; only edges between [live]
   states are searched. *)
let find ?(live = fun _ -> true) ~differs ~stuck_ok ~tracked adjacency =
  let n = Array.length adjacency in
  let edges =
    List.concat
      (List.init n (fun i ->
           if live i then
             List.filter_map (fun e -> if live e.dst then Some (i, e) else None) adjacency.(i)
           else []))
  in
  split_sccs ~n ~differs ~tracked ~stuck_ok edges ~recurse:true

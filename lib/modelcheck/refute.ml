open Engine
open Spp

type result =
  | Realizable of Activation.t list
  | Impossible
  | Unknown of string

let pp_result ppf = function
  | Realizable entries -> Fmt.pf ppf "realizable (%d-step schedule)" (List.length entries)
  | Impossible -> Fmt.string ppf "impossible (exhaustive)"
  | Unknown reason -> Fmt.pf ppf "unknown (%s)" reason

module Key = struct
  type t = State.t * int

  let equal (s, i) (s', i') = i = i' && State.equal s s'
  let hash (s, i) = (State.hash s * 31) + i
end

module Tbl = Hashtbl.Make (Key)

module StateTbl = Hashtbl.Make (struct
  type t = State.t

  let equal = State.equal
  let hash = State.hash
end)

type termination = Prefix | Forever

(* Both searches below step the unprojected, uncollapsed states that
   {!Step.apply} would produce, without its outcome lists. *)
let step inst st (l : Enumerate.labeled) =
  Step.next ~project:false ~collapse:false inst st l.Enumerate.entry

(* Is there a fair infinite continuation from [start] along which the path
   assignment never changes?  Explore the subgraph of states sharing the
   assignment and look for a strongly connected edge set that reads every
   tracked channel and cleans every channel it drops on ({!Fair.find}, as
   in {!Oscillation}, but with constant instead of changing assignments). *)
let fair_constant_continuation config inst successors start =
  let assignment = State.assignment inst start in
  let index = StateTbl.create 64 in
  let n_states = ref 0 in
  let intern st =
    match StateTbl.find_opt index st with
    | Some i -> (i, false)
    | None ->
      let i = !n_states in
      StateTbl.add index st i;
      incr n_states;
      (i, true)
  in
  let rows = Fair.Rows.create () in
  let queue = Queue.create () in
  let i0, _ = intern start in
  Queue.add (i0, start) queue;
  let quiescent_found = ref (State.is_quiescent inst start) in
  while (not !quiescent_found) && not (Queue.is_empty queue) do
    let i, st = Queue.pop queue in
    List.iter
      (fun (l : Enumerate.labeled) ->
        let st' = (step inst st l).Step.after in
        if
          State.max_occupancy st' <= config.Explore.channel_bound
          && Assignment.equal (State.assignment inst st') assignment
        then begin
          let j, fresh = intern st' in
          if fresh then begin
            (* A reachable quiescent state settles the question: polling it
               forever is a fair, assignment-preserving continuation. *)
            if State.is_quiescent inst st' then quiescent_found := true;
            Queue.add (j, st') queue
          end;
          Fair.Rows.add rows j l
        end)
      (successors st);
    Fair.Rows.close rows i
  done;
  !quiescent_found
  ||
  let fair =
    Fair.make ~tracked:(View.tracked (View.spp inst))
      (Fair.Rows.csr ~n:!n_states [ rows ])
  in
  (* Every state shares the assignment, so no cycle changes it: accept any
     drop-stable component that reads every tracked channel. *)
  Option.is_some
    (Fair.find fair { Fair.differs = (fun _ _ -> false); stuck_ok = (fun _ -> true) })

let realizable ?(config = Explore.default_config) ?(termination = Prefix) inst model level
    ~target =
  let target = Array.of_list target in
  let n = Array.length target in
  if n = 0 then invalid_arg "Refute.realizable: empty target";
  let assignment_of st = State.assignment inst st in
  let init = State.initial inst in
  if not (Assignment.equal (assignment_of init) target.(0)) then
    invalid_arg "Refute.realizable: target must start with the initial assignment";
  let successors = Enumerate.successors inst model in
  let seen = Tbl.create 1024 in
  let parent : (Key.t * Activation.t) Tbl.t = Tbl.create 1024 in
  (* Bucket queue keyed by target progress: exploring states that have
     matched more of the target first finds realizations quickly, while
     refutations still require the whole space and are unaffected. *)
  let buckets = Array.init n (fun _ -> Queue.create ()) in
  let queue_size = ref 0 in
  let pruned = ref false and truncated = ref false in
  let push ((_, i) as key : Key.t) par =
    if not (Tbl.mem seen key) then begin
      Tbl.replace seen key ();
      (match par with Some p -> Tbl.replace parent key p | None -> ());
      Queue.add key buckets.(i);
      incr queue_size
    end
  in
  let pop () =
    let rec find i =
      if i < 0 then None
      else if Queue.is_empty buckets.(i) then find (i - 1)
      else begin
        decr queue_size;
        Some (Queue.pop buckets.(i))
      end
    in
    find (n - 1)
  in
  let accept = ref None in
  let continuation_memo = StateTbl.create 16 in
  let accepts ((st, _) as key : Key.t) =
    match termination with
    | Prefix -> Some key
    | Forever ->
      let ok =
        match StateTbl.find_opt continuation_memo st with
        | Some b -> b
        | None ->
          let b = fair_constant_continuation config inst successors st in
          StateTbl.replace continuation_memo st b;
          b
      in
      if ok then Some key else None
  in
  push (init, 0) None;
  if n = 1 then accept := accepts (init, 0);
  let exhausted = ref false in
  while !accept = None && not !exhausted do
    if Tbl.length seen > config.Explore.max_states then begin
      truncated := true;
      exhausted := true
    end
    else begin
      match pop () with
      | None -> exhausted := true
      | Some ((st, i) as key) ->
      ignore queue_size;
      List.iter
        (fun (l : Enumerate.labeled) ->
          if !accept = None then begin
            let st' = (step inst st l).Step.after in
            if State.max_occupancy st' > config.Explore.channel_bound
            then pruned := true
            else begin
              let a' = assignment_of st' in
              let eq j = j < n && Assignment.equal a' target.(j) in
              let moves =
                match level with
                | Realization.Relation.Exact -> if eq (i + 1) then [ i + 1 ] else []
                | Realization.Relation.Repetition ->
                  (if eq i then [ i ] else []) @ (if eq (i + 1) then [ i + 1 ] else [])
                | Realization.Relation.Subsequence | Realization.Relation.Oscillation ->
                  [ (if eq (i + 1) then i + 1 else i) ]
              in
              List.iter
                (fun i' ->
                  let key' = (st', i') in
                  if not (Tbl.mem seen key') then begin
                    push key' (Some (key, l.Enumerate.entry));
                    if i' = n - 1 then accept := accepts key'
                  end)
                moves
            end
          end)
        (successors st)
    end
  done;
  match !accept with
  | Some key ->
    let rec build acc key =
      match Tbl.find_opt parent key with
      | None -> acc
      | Some (prev, entry) -> build (entry :: acc) prev
    in
    Realizable (build [] key)
  | None -> (
    match Fair.incomplete ~pruned:!pruned ~truncated:!truncated with
    | Some reason -> Unknown reason
    | None -> Impossible)

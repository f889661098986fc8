(* Strongly connected components (iterative Tarjan), used by the test
   oracle [Fair_oracle].  [tarjan n adj] returns [(comp, count)]: each
   node's component (numbered in reverse topological order) and their
   number. *)

let tarjan n adj =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = ref [] in
  let counter = ref 0 and n_comps = ref 0 in
  for root = 0 to n - 1 do
    if index.(root) = -1 then begin
      (* call stack of (node, remaining successors) *)
      let call = ref [ (root, ref (adj root)) ] in
      index.(root) <- !counter;
      lowlink.(root) <- !counter;
      incr counter;
      stack := root :: !stack;
      on_stack.(root) <- true;
      while !call <> [] do
        match !call with
        | [] -> ()
        | (v, succs) :: rest -> (
          match !succs with
          | w :: more ->
            succs := more;
            if index.(w) = -1 then begin
              index.(w) <- !counter;
              lowlink.(w) <- !counter;
              incr counter;
              stack := w :: !stack;
              on_stack.(w) <- true;
              call := (w, ref (adj w)) :: !call
            end
            else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
          | [] ->
            if lowlink.(v) = index.(v) then begin
              let rec pop () =
                match !stack with
                | w :: rest ->
                  stack := rest;
                  on_stack.(w) <- false;
                  comp.(w) <- !n_comps;
                  if w <> v then pop ()
                | [] -> assert false
              in
              pop ();
              incr n_comps
            end;
            call := rest;
            (match rest with
            | (u, _) :: _ -> lowlink.(u) <- min lowlink.(u) lowlink.(v)
            | [] -> ()))
      done
    end
  done;
  (comp, !n_comps)


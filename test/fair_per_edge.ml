(* The fair-cycle kernel as it was when every edge carried its own
   channel masks: [make ~out] copies a graph given as an edge callback
   into CSR with per-edge [src]/[dst]/[entry] arrays and three mask
   arrays of [words] words per edge.  Kept here only as the oracle that
   the per-label masks of [Modelcheck.Fair] must reproduce, witness for
   witness; the search below is unchanged from it. *)

open Engine
open Modelcheck

(* Channel bits per mask word: OCaml ints hold 63 bits, and staying below
   keeps every word non-negative. *)
let bits = 62

type t = {
  n : int;
  words : int;  (** mask words per edge *)
  first : int array;  (** CSR: state i's edges are ids [first.(i) .. first.(i+1)-1] *)
  src : int array;
  dst : int array;
  entry : Activation.t array;
  reads : int array;  (** edge e's mask is [e * words .. e * words + words - 1] *)
  drops : int array;
  cleans : int array;
  tracked : int array;  (** the tracked channels, one mask *)
}

type goal = { differs : int -> int -> bool; stuck_ok : int -> bool }

(* Channel numbering: [rows.(src)] maps dst to the channel's bit, as a
   short assoc list (a state's channels are few), so interning costs an
   array index and a few compares per channel occurrence. *)
type numbering = { mutable rows : (int * int) list array; mutable count : int }

let bit_of num (c : Channel.id) =
  let src = c.Channel.src and dst = c.Channel.dst in
  if src < 0 then invalid_arg "Fair.make: negative node id";
  if src >= Array.length num.rows then begin
    let rows = Array.make (max (src + 1) (2 * Array.length num.rows)) [] in
    Array.blit num.rows 0 rows 0 (Array.length num.rows);
    num.rows <- rows
  end;
  let rec find = function
    | (d, b) :: rest -> if Int.equal d dst then b else find rest
    | [] ->
      let b = num.count in
      num.rows.(src) <- (dst, b) :: num.rows.(src);
      num.count <- b + 1;
      b
  in
  find num.rows.(src)

let make ~n ~tracked ~out =
  let num = { rows = [||]; count = 0 } in
  let intern c = ignore (bit_of num c) in
  List.iter intern tracked;
  (* The first pass counts each state's edges and numbers every channel,
     so the second fills the masks at their final width. *)
  let first = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    out i (fun _ (l : Enumerate.labeled) ->
        first.(i + 1) <- first.(i + 1) + 1;
        List.iter intern l.Enumerate.reads;
        List.iter intern l.Enumerate.drops;
        List.iter intern l.Enumerate.cleans)
  done;
  for i = 1 to n do
    first.(i) <- first.(i) + first.(i - 1)
  done;
  let m = first.(n) and words = max 1 ((num.count + bits - 1) / bits) in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let reads = Array.make (m * words) 0
  and drops = Array.make (m * words) 0
  and cleans = Array.make (m * words) 0 in
  let set mask base c =
    let b = bit_of num c in
    let j = base + (b / bits) in
    mask.(j) <- mask.(j) lor (1 lsl (b mod bits))
  in
  let entry = ref [||] and next = ref 0 in
  for i = 0 to n - 1 do
    out i (fun d (l : Enumerate.labeled) ->
        let e = !next in
        incr next;
        if e = 0 then entry := Array.make m l.Enumerate.entry;
        src.(e) <- i;
        dst.(e) <- d;
        !entry.(e) <- l.Enumerate.entry;
        List.iter (set reads (e * words)) l.Enumerate.reads;
        List.iter (set drops (e * words)) l.Enumerate.drops;
        List.iter (set cleans (e * words)) l.Enumerate.cleans)
  done;
  if !next <> m || num.count > words * bits then
    invalid_arg "Fair.make: [out] enumerated different edges twice";
  let tracked_mask = Array.make words 0 in
  List.iter (set tracked_mask 0) tracked;
  { n; words; first; src; dst; entry = !entry; reads; drops; cleans; tracked = tracked_mask }

(* ------------------------------------------------------------------ *)
(* Masks *)

let or_edge t acc mask e =
  let base = e * t.words in
  for j = 0 to t.words - 1 do
    acc.(j) <- acc.(j) lor mask.(base + j)
  done

let union t mask es =
  let acc = Array.make t.words 0 in
  Array.iter (or_edge t acc mask) es;
  acc

(* Edge e's mask within [acc]? *)
let edge_within t mask e acc =
  let base = e * t.words in
  let rec go j = j = t.words || (mask.(base + j) land lnot acc.(j) = 0 && go (j + 1)) in
  go 0

let within a b =
  let rec go j = j = Array.length a || (a.(j) land lnot b.(j) = 0 && go (j + 1)) in
  go 0

let mem mask b = mask.(b / bits) land (1 lsl (b mod bits)) <> 0
let edge_mem t mask e b = mask.((e * t.words) + (b / bits)) land (1 lsl (b mod bits)) <> 0

(* The channel bits set in [mask], ascending. *)
let bits_of mask =
  List.filter (mem mask) (List.init (Array.length mask * bits) Fun.id)

(* ------------------------------------------------------------------ *)
(* Component-local numbering.  [local] is shared by one search and is -1
   everywhere between calls; [number] gives the endpoints of [es] the
   indices 0 .. k-1 (returning the states in that order) and [release]
   restores -1, so a step costs O(|es|) however large the graph. *)

let number t local es =
  let nodes = Array.make (min t.n (2 * Array.length es)) 0 and k = ref 0 in
  let visit v =
    if local.(v) < 0 then begin
      local.(v) <- !k;
      nodes.(!k) <- v;
      incr k
    end
  in
  Array.iter
    (fun e ->
      visit t.src.(e);
      visit t.dst.(e))
    es;
  Array.sub nodes 0 !k

let release local nodes = Array.iter (fun v -> local.(v) <- -1) nodes

(* CSR of [es] over the local numbering: local state u's edges are
   [out.(start.(u)) .. out.(start.(u+1)-1)], in [es] order. *)
let local_csr t local k es =
  let start = Array.make (k + 1) 0 in
  Array.iter
    (fun e ->
      let u = local.(t.src.(e)) + 1 in
      start.(u) <- start.(u) + 1)
    es;
  for u = 1 to k do
    start.(u) <- start.(u) + start.(u - 1)
  done;
  let fill = Array.sub start 0 k and out = Array.make (Array.length es) 0 in
  Array.iter
    (fun e ->
      let u = local.(t.src.(e)) in
      out.(fill.(u)) <- e;
      fill.(u) <- fill.(u) + 1)
    es;
  (start, out)

(* Iterative Tarjan over local states 0 .. k-1; [succ p] is the local
   target of CSR position p.  Returns each state's component and the
   number of components. *)
let tarjan k start succ =
  let index = Array.make k (-1) and low = Array.make k 0 in
  let comp = Array.make k (-1) and next = Array.make k 0 in
  let stack = Array.make k 0 and sp = ref 0 in
  let call = Array.make k 0 and top = ref 0 in
  let counter = ref 0 and ncomp = ref 0 in
  let visit v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack.(!sp) <- v;
    incr sp;
    next.(v) <- start.(v);
    call.(!top) <- v;
    incr top
  in
  for root = 0 to k - 1 do
    if index.(root) < 0 then begin
      visit root;
      while !top > 0 do
        let v = call.(!top - 1) in
        if next.(v) < start.(v + 1) then begin
          let w = succ next.(v) in
          next.(v) <- next.(v) + 1;
          if index.(w) < 0 then visit w
          else if comp.(w) < 0 then low.(v) <- Int.min low.(v) index.(w)
        end
        else begin
          decr top;
          if low.(v) = index.(v) then begin
            let popping = ref true in
            while !popping do
              decr sp;
              let w = stack.(!sp) in
              comp.(w) <- !ncomp;
              popping := w <> v
            done;
            incr ncomp
          end;
          if !top > 0 then begin
            let u = call.(!top - 1) in
            low.(u) <- Int.min low.(u) low.(v)
          end
        end
      done
    end
  done;
  (comp, !ncomp)

(* The internal edges of each strongly connected component of [es] that
   has any, in [es] order, components in Tarjan's completion order (reverse
   topological: a component comes before every component that reaches
   it). *)
let split t local es =
  let nodes = number t local es in
  let k = Array.length nodes in
  let start, out = local_csr t local k es in
  let comp, ncomp = tarjan k start (fun p -> local.(t.dst.(out.(p)))) in
  let size = Array.make ncomp 0 in
  let comp_of e =
    let c = comp.(local.(t.src.(e))) in
    if c = comp.(local.(t.dst.(e))) then c else -1
  in
  Array.iter
    (fun e ->
      let c = comp_of e in
      if c >= 0 then size.(c) <- size.(c) + 1)
    es;
  let parts = Array.map (fun s -> Array.make s 0) size and fill = Array.make ncomp 0 in
  Array.iter
    (fun e ->
      let c = comp_of e in
      if c >= 0 then begin
        parts.(c).(fill.(c)) <- e;
        fill.(c) <- fill.(c) + 1
      end)
    es;
  release local nodes;
  List.filter (fun es -> Array.length es > 0) (Array.to_list parts)

let filter p es =
  let kept = Array.make (Array.length es) 0 and k = ref 0 in
  Array.iter
    (fun e ->
      if p e then begin
        kept.(!k) <- e;
        incr k
      end)
    es;
  Array.sub kept 0 !k

(* The edges of [es] whose drops [es] cleans somewhere. *)
let drop_stable t es =
  let cleans = union t t.cleans es in
  filter (fun e -> edge_within t t.drops e cleans) es

(* ------------------------------------------------------------------ *)
(* Witnesses *)

(* A closed walk from [start] over the drop-stable component [es] (whose
   states [nodes] carry the local numbering): first a loop through
   [changed] (or, for a stuck component, through [start]'s first edge),
   then a loop through a reader of each tracked channel it misses, then a
   loop through a cleaner of each channel it drops but does not clean —
   repeated, since those loops may drop more.  Each round cleans every
   missing channel or fails, so the cleaned set grows strictly and the
   rounds end. *)
let witness t local nodes es ~start ~changed =
  let k = Array.length nodes in
  let first, out = local_csr t local k es in
  (* The edges along a shortest path from a to b inside the component;
     ties go to a state's later edges. *)
  let bfs a b =
    let a = local.(a) and b = local.(b) in
    let via = Array.make k (-1) and queue = Array.make k 0 in
    via.(a) <- -2;
    queue.(0) <- a;
    let head = ref 0 and tail = ref 1 in
    while via.(b) = -1 && !head < !tail do
      let u = queue.(!head) in
      incr head;
      for p = first.(u + 1) - 1 downto first.(u) do
        let e = out.(p) in
        let v = local.(t.dst.(e)) in
        if via.(v) = -1 then begin
          via.(v) <- e;
          queue.(!tail) <- v;
          incr tail
        end
      done
    done;
    let rec back acc v = if v = a then acc else back (via.(v) :: acc) local.(t.src.(via.(v))) in
    if via.(b) = -1 then None else Some (back [] b)
  in
  let walk = ref [] and ok = ref true in
  let reads = Array.make t.words 0
  and drops = Array.make t.words 0
  and cleans = Array.make t.words 0 in
  let add e =
    walk := e :: !walk;
    or_edge t reads t.reads e;
    or_edge t drops t.drops e;
    or_edge t cleans t.cleans e
  in
  let path a b =
    if !ok then match bfs a b with Some p -> List.iter add p | None -> ok := false
  in
  let loop_via e =
    path start t.src.(e);
    if !ok then add e;
    path t.dst.(e) start
  in
  let first_with mask b =
    match Array.find_opt (fun e -> edge_mem t mask e b) es with
    | Some e -> loop_via e
    | None -> ok := false
  in
  (match changed with
  | Some s2 ->
    path start s2;
    path s2 start
  | None ->
    let u = local.(start) in
    if first.(u) < first.(u + 1) then loop_via out.(first.(u)) else ok := false);
  List.iter
    (fun b -> if !ok && not (mem reads b) then first_with t.reads b)
    (bits_of t.tracked);
  let rec fix_drops () =
    let missing = Array.mapi (fun j d -> d land lnot cleans.(j)) drops in
    if !ok && Array.exists (fun w -> w <> 0) missing then begin
      List.iter
        (fun b -> if !ok && not (mem cleans b) then first_with t.cleans b)
        (bits_of missing);
      fix_drops ()
    end
  in
  fix_drops ();
  if !ok && !walk <> [] && within drops cleans && within t.tracked reads then
    Some (start, List.rev_map (fun e -> t.entry.(e)) !walk)
  else None

(* A drop-stable strongly connected [es]: accepted per the goal? *)
let accept t local goal es =
  if not (within t.tracked (union t t.reads es)) then None
  else begin
    let nodes = number t local es in
    let sorted = Array.copy nodes in
    Array.sort Int.compare sorted;
    let start = sorted.(0) in
    let changed = Array.find_opt (goal.differs start) sorted in
    let r =
      if changed = None && not (Array.for_all goal.stuck_ok nodes) then None
      else witness t local nodes es ~start ~changed
    in
    release local nodes;
    r
  end

let find ?metrics ?(live = fun _ -> true) t goal =
  let local = Array.make t.n (-1) in
  let splits = ref 0 and scanned = ref 0 in
  let split es =
    incr splits;
    scanned := !scanned + Array.length es;
    split t local es
  in
  let all = filter (fun e -> live t.src.(e) && live t.dst.(e)) (Array.init (Array.length t.dst) Fun.id) in
  (* Depth-first over components: a component that is not drop-stable is
     replaced in place by the components of its stable part. *)
  let rec search = function
    | [] -> None
    | es :: rest ->
      let kept = drop_stable t es in
      if Array.length kept < Array.length es then search (split kept @ rest)
      else begin
        match accept t local goal es with
        | Some _ as found -> found
        | None -> search rest
      end
  in
  let found = search (split all) in
  Option.iter
    (fun m ->
      Metrics.add_fair_splits m !splits;
      Metrics.add_fair_edges_scanned m !scanned)
    metrics;
  found

let prefix t target =
  let via = Array.make t.n (-1) and queue = Array.make t.n 0 in
  via.(0) <- -2;
  let head = ref 0 and tail = ref 1 in
  while via.(target) = -1 && !head < !tail do
    let u = queue.(!head) in
    incr head;
    for e = t.first.(u) to t.first.(u + 1) - 1 do
      let v = t.dst.(e) in
      if via.(v) = -1 then begin
        via.(v) <- e;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  let rec back acc v = if v = 0 then acc else back (t.entry.(via.(v)) :: acc) t.src.(via.(v)) in
  if via.(target) = -1 then None else Some (back [] target)

(* The fair-cycle kernel: per-label channel masks over the explorer's CSR
   graph, then the drop-stability fixpoint over component-local
   numberings (fair.mli). *)

open Engine

(* Channel bits per mask word: OCaml ints hold 63 bits, and staying below
   keeps every word non-negative. *)
let bits = 62

type csr = { first : int array; dst : int array; label : Enumerate.labeled array }

(* A constant, so never in the minor heap: filling a large array with a
   young value would force a minor collection ([caml_make_vect]). *)
let no_label =
  {
    Enumerate.entry = { Activation.active = []; reads = [] };
    reads = [];
    drops = [];
    cleans = [];
  }

(* The compact graph as a search writes it: rows appended in expansion
   order, each row's edges in the order they were added. *)
module Rows = struct
  type t = {
    mutable ids : int array;  (* row r expands state ids.(r) ... *)
    mutable ends : int array;  (* ... and its edges end before ends.(r) *)
    mutable rows : int;
    mutable dst : int array;
    mutable label : Enumerate.labeled array;
    mutable edges : int;
  }

  let create () = { ids = [||]; ends = [||]; rows = 0; dst = [||]; label = [||]; edges = 0 }

  let grow a used fill =
    if used < Array.length a then a
    else begin
      let b = Array.make (max 256 (2 * used)) fill in
      Array.blit a 0 b 0 used;
      b
    end

  let add t dst label =
    t.dst <- grow t.dst t.edges 0;
    t.label <- grow t.label t.edges no_label;
    t.dst.(t.edges) <- dst;
    t.label.(t.edges) <- label;
    t.edges <- t.edges + 1

  let close t id =
    t.ids <- grow t.ids t.rows 0;
    t.ends <- grow t.ends t.rows 0;
    t.ids.(t.rows) <- id;
    t.ends.(t.rows) <- t.edges;
    t.rows <- t.rows + 1

  let edges t = t.edges
  let start t r = if r = 0 then 0 else t.ends.(r - 1)

  let to_list t f =
    let row r =
      let s = start t r in
      List.init (t.ends.(r) - s) (fun k -> f t.dst.(s + k) t.label.(s + k))
    in
    let rec go r acc = if r = t.rows then acc else go (r + 1) ((t.ids.(r), row r) :: acc) in
    go 0 []

  let csr ~n logs =
    let first = Array.make (n + 1) 0 in
    List.iter
      (fun t ->
        for r = 0 to t.rows - 1 do
          first.(t.ids.(r) + 1) <- t.ends.(r) - start t r
        done)
      logs;
    for i = 1 to n do
      first.(i) <- first.(i) + first.(i - 1)
    done;
    let m = first.(n) in
    let dst = Array.make m 0 and label = Array.make m no_label in
    List.iter
      (fun t ->
        for r = 0 to t.rows - 1 do
          let s = start t r in
          let len = t.ends.(r) - s in
          Array.blit t.dst s dst first.(t.ids.(r)) len;
          Array.blit t.label s label first.(t.ids.(r)) len
        done)
      logs;
    { first; dst; label }
end

type t = {
  n : int;
  words : int;  (** mask words per label slot *)
  csr : csr;
  src : int array;
  slot : int array;  (** edge e's masks are those of label slot [slot.(e)] *)
  reads : int array;  (** slot s's mask is [s * words .. s * words + words - 1] *)
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

(* Label slots.  An edge's masks depend only on its label's channel
   lists, and the explorers share one label value among all the edges it
   names, so [make] finds each edge's slot in a direct-mapped cache on
   the label's physical identity, indexed by a cheap hash of its
   contents; only a miss goes to the table keyed by the channel lists. *)
let cache_bits = 12

let channel_hash h (c : Channel.id) = (((h * 31) + c.Channel.src) * 31) + c.Channel.dst
let channels_hash = List.fold_left channel_hash

let label_hash (l : Enumerate.labeled) =
  let e = l.Enumerate.entry in
  let rec reads h = function
    | [] -> h
    | (r : Activation.read) :: rest ->
      let count =
        match r.Activation.count with Activation.All -> 0 | Activation.Finite f -> f + 1
      in
      reads
        ((channel_hash h r.Activation.chan * 31)
        + count
        + (7 * Activation.IntSet.cardinal r.Activation.drops))
        rest
  in
  let rec active h = function [] -> h | v :: rest -> active ((h * 31) + v) rest in
  let h = reads (active 17 e.Activation.active) e.Activation.reads in
  let h = channels_hash (channels_hash ((h * 17) + 1) l.Enumerate.drops) l.Enumerate.cleans in
  (* the high bits of a multiplicative hash *)
  ((h lxor (h lsr 17)) * 0x2545F4914F6CDD1D) lsr (Sys.int_size - cache_bits)

module Content = Hashtbl.Make (struct
  type t = Enumerate.labeled

  let equal (a : t) (b : t) =
    a.Enumerate.reads = b.Enumerate.reads
    && a.Enumerate.drops = b.Enumerate.drops
    && a.Enumerate.cleans = b.Enumerate.cleans

  let hash (l : t) = Hashtbl.hash (l.Enumerate.reads, l.Enumerate.drops, l.Enumerate.cleans)
end)

(* Each edge's slot, and one representative label per slot. *)
let slots (g : csr) =
  let m = Array.length g.dst in
  let slot = Array.make m 0 in
  let cached = Array.make (1 lsl cache_bits) no_label
  and cached_slot = Array.make (1 lsl cache_bits) 0 in
  let table = Content.create 256 and reps = ref [] in
  for e = 0 to m - 1 do
    let l = g.label.(e) in
    let h = label_hash l in
    if cached.(h) == l then slot.(e) <- cached_slot.(h)
    else begin
      let s =
        match Content.find_opt table l with
        | Some s -> s
        | None ->
          let s = Content.length table in
          Content.add table l s;
          reps := l :: !reps;
          s
      in
      cached.(h) <- l;
      cached_slot.(h) <- s;
      slot.(e) <- s
    end
  done;
  (slot, Array.of_list (List.rev !reps))

let make ~tracked (g : csr) =
  let n = Array.length g.first - 1 and m = Array.length g.dst in
  if n < 0 || g.first.(0) <> 0 || g.first.(n) <> m || Array.length g.label <> m then
    invalid_arg "Fair.make: not a CSR graph";
  let src = Array.make m 0 in
  for i = 0 to n - 1 do
    Array.fill src g.first.(i) (g.first.(i + 1) - g.first.(i)) i
  done;
  let slot, reps = slots g in
  (* Tracked channels take the lowest bits, then every channel in the
     order the edges first name it. *)
  let num = { rows = [||]; count = 0 } in
  let intern c = ignore (bit_of num c) in
  List.iter intern tracked;
  Array.iter
    (fun (l : Enumerate.labeled) ->
      List.iter intern l.Enumerate.reads;
      List.iter intern l.Enumerate.drops;
      List.iter intern l.Enumerate.cleans)
    reps;
  let words = max 1 ((num.count + bits - 1) / bits) in
  let k = Array.length reps in
  let reads = Array.make (k * words) 0
  and drops = Array.make (k * words) 0
  and cleans = Array.make (k * words) 0 in
  let set mask base c =
    let b = bit_of num c in
    let j = base + (b / bits) in
    mask.(j) <- mask.(j) lor (1 lsl (b mod bits))
  in
  Array.iteri
    (fun s (l : Enumerate.labeled) ->
      List.iter (set reads (s * words)) l.Enumerate.reads;
      List.iter (set drops (s * words)) l.Enumerate.drops;
      List.iter (set cleans (s * words)) l.Enumerate.cleans)
    reps;
  let tracked_mask = Array.make words 0 in
  List.iter (set tracked_mask 0) tracked;
  { n; words; csr = g; src; slot; reads; drops; cleans; tracked = tracked_mask }

(* ------------------------------------------------------------------ *)
(* Masks *)

let or_edge t acc mask e =
  let base = t.slot.(e) * t.words in
  for j = 0 to t.words - 1 do
    acc.(j) <- acc.(j) lor mask.(base + j)
  done

let union t mask es =
  let acc = Array.make t.words 0 in
  Array.iter (or_edge t acc mask) es;
  acc

(* Edge e's mask within [acc]? *)
let edge_within t mask e acc =
  let base = t.slot.(e) * t.words in
  let rec go j = j = t.words || (mask.(base + j) land lnot acc.(j) = 0 && go (j + 1)) in
  go 0

let within a b =
  let rec go j = j = Array.length a || (a.(j) land lnot b.(j) = 0 && go (j + 1)) in
  go 0

let mem mask b = mask.(b / bits) land (1 lsl (b mod bits)) <> 0
let edge_mem t mask e b =
  mask.((t.slot.(e) * t.words) + (b / bits)) land (1 lsl (b mod bits)) <> 0

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
      visit t.csr.dst.(e))
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
  let comp, ncomp = tarjan k start (fun p -> local.(t.csr.dst.(out.(p)))) in
  let size = Array.make ncomp 0 in
  let comp_of e =
    let c = comp.(local.(t.src.(e))) in
    if c = comp.(local.(t.csr.dst.(e))) then c else -1
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
        let v = local.(t.csr.dst.(e)) in
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
    path t.csr.dst.(e) start
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
    Some (start, List.rev_map (fun e -> t.csr.label.(e).Enumerate.entry) !walk)
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

let find ?metrics ?live t goal =
  let local = Array.make t.n (-1) in
  let splits = ref 0 and scanned = ref 0 in
  let split es =
    incr splits;
    scanned := !scanned + Array.length es;
    split t local es
  in
  let all = Array.init (Array.length t.csr.dst) Fun.id in
  let all =
    match live with
    | None -> all
    | Some live -> filter (fun e -> live t.src.(e) && live t.csr.dst.(e)) all
  in
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

(* Backward BFS from every marked state over the reverse CSR (rfirst/rsrc:
   state v's predecessors are [rsrc.(rfirst.(v)) .. rsrc.(rfirst.(v+1)-1)]). *)
let reaching t marked =
  let dst = t.csr.dst in
  let rfirst = Array.make (t.n + 1) 0 and rsrc = Array.make (Array.length dst) 0 in
  Array.iter (fun v -> rfirst.(v + 1) <- rfirst.(v + 1) + 1) dst;
  for v = 1 to t.n do
    rfirst.(v) <- rfirst.(v) + rfirst.(v - 1)
  done;
  let fill = Array.sub rfirst 0 t.n in
  Array.iteri
    (fun e v ->
      rsrc.(fill.(v)) <- t.src.(e);
      fill.(v) <- fill.(v) + 1)
    dst;
  let reach = Array.copy marked and queue = Array.make t.n 0 and tail = ref 0 in
  Array.iteri
    (fun i c ->
      if c then begin
        queue.(!tail) <- i;
        incr tail
      end)
    marked;
  let head = ref 0 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    for p = rfirst.(v) to rfirst.(v + 1) - 1 do
      let u = rsrc.(p) in
      if not reach.(u) then begin
        reach.(u) <- true;
        queue.(!tail) <- u;
        incr tail
      end
    done
  done;
  reach

let prefix t target =
  let via = Array.make t.n (-1) and queue = Array.make t.n 0 in
  via.(0) <- -2;
  let head = ref 0 and tail = ref 1 in
  while via.(target) = -1 && !head < !tail do
    let u = queue.(!head) in
    incr head;
    for e = t.csr.first.(u) to t.csr.first.(u + 1) - 1 do
      let v = t.csr.dst.(e) in
      if via.(v) = -1 then begin
        via.(v) <- e;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  let rec back acc v =
    if v = 0 then acc else back (t.csr.label.(via.(v)).Enumerate.entry :: acc) t.src.(via.(v))
  in
  if via.(target) = -1 then None else Some (back [] target)

(* ------------------------------------------------------------------ *)
(* Verdicts, and their check by replay, for every adapter. *)

type witness = { prefix : Activation.t list; cycle : Activation.t list }
type verdict = Oscillates of witness | Converges | Unknown of string

let verdict_name found = function
  | Oscillates _ -> found
  | Converges -> "converges"
  | Unknown _ -> "unknown"

let pp_verdict found ppf = function
  | Oscillates w ->
    Fmt.pf ppf "%s (witness: %d-step prefix, %d-step fair cycle)" found
      (List.length w.prefix) (List.length w.cycle)
  | Converges -> Fmt.string ppf "converges under every fair schedule"
  | Unknown reason -> Fmt.pf ppf "unknown (%s)" reason

let incomplete ~pruned ~truncated =
  if pruned then Some "channel bound pruned some writes"
  else if truncated then Some "state limit reached"
  else None

let decide ?metrics ?live t goal ~pruned ~truncated =
  match find ?metrics ?live t goal with
  | Some (start, cycle) -> (
    match prefix t start with
    | Some prefix -> Oscillates { prefix; cycle }
    | None -> Unknown "cycle start unreachable (internal error)")
  | None -> (
    match incomplete ~pruned ~truncated with
    | Some reason -> Unknown reason
    | None -> Converges)

type 'state replay = {
  initial : 'state;
  apply : 'state -> Activation.t -> 'state * Fairness.counts;
  valid : Activation.t -> bool;
  tracked : Channel.id list;
  run : max_steps:int -> Scheduler.t -> Executor.stop;
}

let replays ?max_steps r w =
  let max_steps =
    match max_steps with
    | Some n -> n
    | None -> max 5000 (List.length w.prefix + (4 * List.length w.cycle) + 10)
  in
  let after_prefix = List.fold_left (fun st e -> fst (r.apply st e)) r.initial w.prefix in
  let stop = r.run ~max_steps (Scheduler.prefixed w.prefix w.cycle) in
  List.for_all r.valid (w.prefix @ w.cycle)
  && Fairness.replayed_cycle_is_fair ~tracked:r.tracked
       (snd
          (List.fold_left_map
             (fun st e ->
               let st', counts = r.apply st e in
               (st', (e, counts)))
             after_prefix w.cycle))
  &&
  match stop with
  | Executor.Cycle _ -> true
  | Executor.Converged | Executor.Exhausted -> false

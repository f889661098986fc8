open Spp

(* A state is one immutable int array with an instance-fixed layout,

     [ π(0..n-1) | announced(0..n-1) | ρ(0..k-1) | length(0..k-1) | messages ]

   where the k channels of the instance are numbered in [Channel.compare_id]
   order and the message region holds channel 0's queue, then channel 1's,
   ..., each oldest first.  Routes are arena ids and epsilon is 0, so an
   absent binding and an empty queue are both stored as zeros and the
   encoding of a state's content is unique: equality is a comparison of
   two int arrays, and the digest is computed once, when the array is
   sealed.

   Steps change a state through an {!Edit}: a mutable copy updated in
   place and sealed into a new array once, so a step allocates one array
   however many components it changes.  Equal arrays have equal digests
   whichever domain built them, because arena ids are canonical
   process-wide; that is what lets the parallel explorer shard its intern
   table by digest. *)

type layout = {
  n : int;  (* nodes 0..n-1 *)
  k : int;  (* channels *)
  slot : int array;  (* src * n + dst -> channel number, or -1 *)
  ids : Channel.id array;  (* channel number -> id, ascending *)
}

type t = { lay : layout; d : int array; dig : int; max_occ : int }

let o_ann l = l.n
let o_rho l = 2 * l.n
let o_len l = (2 * l.n) + l.k
let o_msg l = (2 * l.n) + (2 * l.k)

let make_layout inst =
  let n = Instance.size inst in
  let ids =
    Array.of_list
      (List.sort Channel.compare_id
         (List.map (fun (src, dst) -> Channel.id ~src ~dst) (Instance.channels inst)))
  in
  let slot = Array.make (n * n) (-1) in
  Array.iteri (fun i (c : Channel.id) -> slot.((c.src * n) + c.dst) <- i) ids;
  { n; k = Array.length ids; slot; ids }

(* Every execution and exploration starts from [initial]; one cached
   layout spares repeated runs on one instance the rebuild. *)
let last_layout = Atomic.make None

let layout inst =
  match Atomic.get last_layout with
  | Some (i, l) when i == inst -> l
  | _ ->
    let l = make_layout inst in
    Atomic.set last_layout (Some (inst, l));
    l

let chan_ix l (c : Channel.id) =
  let s = c.Channel.src and d = c.Channel.dst in
  if s >= 0 && d >= 0 && s < l.n && d < l.n then Array.unsafe_get l.slot ((s * l.n) + d)
  else -1

let chan_ix_exn l c =
  let i = chan_ix l c in
  if i < 0 then invalid_arg "State: channel not in the instance" else i

let node_exn l v = if v < 0 || v >= l.n then invalid_arg "State: node not in the instance"

(* FNV-style fold over the first [len] words, with a final avalanche:
   the shard index of the parallel explorer takes the low bits. *)
let digest_of d len =
  let h = ref 0x2545F4914F6CDD1D in
  for i = 0 to len - 1 do
    h := (!h lxor Array.unsafe_get d i) * 0x100000001b3
  done;
  let h = !h in
  let h = (h lxor (h lsr 29)) * 0x2127599BF4325C37 in
  (h lxor (h lsr 32)) land max_int

let occupancy_of l d =
  let occ = ref 0 in
  for i = o_len l to o_msg l - 1 do
    if Array.unsafe_get d i > !occ then occ := Array.unsafe_get d i
  done;
  !occ

let seal l d = { lay = l; d; dig = digest_of d (Array.length d); max_occ = occupancy_of l d }

(* The first [n] words of [a] and [b] agree from [i] on.  Top level, so a
   comparison allocates no closure. *)
let rec same (a : int array) (b : int array) i n =
  i >= n || (Array.unsafe_get a i = Array.unsafe_get b i && same a b (i + 1) n)

let digest t = t.dig
let hash = digest
let max_occupancy t = t.max_occ

let initial inst =
  let l = layout inst in
  let d = Array.make (o_msg l) 0 in
  d.(Instance.dest inst) <- Instance.trivial_id inst;
  seal l d

let pi_id t v = if v >= 0 && v < t.lay.n then t.d.(v) else Arena.epsilon

let announced_id t v =
  if v >= 0 && v < t.lay.n then t.d.(o_ann t.lay + v) else Arena.epsilon

let rho_id t c =
  let i = chan_ix t.lay c in
  if i < 0 then Arena.epsilon else t.d.(o_rho t.lay + i)

let pi t v = Arena.path (pi_id t v)
let announced t v = Arena.path (announced_id t v)
let rho t c = Arena.path (rho_id t c)

let queue_length t c =
  let i = chan_ix t.lay c in
  if i < 0 then 0 else t.d.(o_len t.lay + i)

(* The map view, built on demand: pretty-printing, surgery, transforms
   and the whole-state reductions read it; no hot path does. *)
let channels t =
  let l = t.lay in
  let m = ref Channel.Map.empty and off = ref (o_msg l) in
  for i = 0 to l.k - 1 do
    let len = t.d.(o_len l + i) in
    if len > 0 then begin
      let base = !off in
      m := Channel.Map.add l.ids.(i) (List.init len (fun j -> t.d.(base + j))) !m
    end;
    off := !off + len
  done;
  !m

let fold_rho_id f t acc =
  let l = t.lay in
  let acc = ref acc in
  for i = 0 to l.k - 1 do
    let p = t.d.(o_rho l + i) in
    if not (Arena.is_epsilon p) then acc := f l.ids.(i) p !acc
  done;
  !acc

let rho_bindings_id t = List.rev (fold_rho_id (fun c p acc -> (c, p) :: acc) t [])
let rho_bindings t = List.map (fun (c, p) -> (c, Arena.path p)) (rho_bindings_id t)
let assignment inst t = Assignment.make inst (fun v -> pi t v)

(* The route [v] would choose with known routes [rho l d]: one O(1)
   permitted-extension lookup per neighbor (Instance.ext_tbl), no
   interning, no list scans.  The best candidate so far is carried
   unboxed ([best] is epsilon while there is none): lowest rank first,
   then lowest neighbor.  The loop is top level, so it allocates no
   closure. *)
let rec best_of inst l d v best best_rank best_u = function
  | [] -> best
  | u :: rest -> (
    let r = Array.unsafe_get d (o_rho l + l.slot.((u * l.n) + v)) in
    if Arena.is_epsilon r then best_of inst l d v best best_rank best_u rest
    else
      match Instance.permitted_extension inst v r with
      | Some (pid, rank)
        when Arena.is_epsilon best || rank < best_rank || (rank = best_rank && u <= best_u)
        ->
        best_of inst l d v pid rank u rest
      | _ -> best_of inst l d v best best_rank best_u rest)

let choose inst l d v =
  if v = Instance.dest inst then Instance.trivial_id inst
  else best_of inst l d v Arena.epsilon 0 0 (Instance.neighbors inst v)

(* ------------------------------------------------------------------ *)

module Edit = struct
  type state = t

  (* The state's array copied into [buf], which has room to spare; [len]
     words of it are in use. *)
  type t = { mutable lay : layout; mutable buf : int array; mutable len : int }

  let create () = { lay = { n = 0; k = 0; slot = [||]; ids = [||] }; buf = [||]; len = 0 }

  (* [Array.blit src so dst do n] for int arrays, overlapping ranges
     included.  The per-domain buffer is long-lived, so it sits in the
     major heap, where the polymorphic [Array.blit] pays the write barrier
     ([caml_modify]) on every word; a loop over [int array] compiles to
     plain stores. *)
  let move (src : int array) so (dst : int array) d_o n =
    if so >= d_o then
      for i = 0 to n - 1 do
        Array.unsafe_set dst (d_o + i) (Array.unsafe_get src (so + i))
      done
    else
      for i = n - 1 downto 0 do
        Array.unsafe_set dst (d_o + i) (Array.unsafe_get src (so + i))
      done

  let load e (s : state) =
    let len = Array.length s.d in
    if Array.length e.buf < len + 4 then e.buf <- Array.make (2 * (len + 4)) 0;
    move s.d 0 e.buf 0 len;
    e.len <- len;
    if e.lay != s.lay then e.lay <- s.lay

  (* What the explorers' intern tables need of a successor before they
     decide to keep it: the digest and occupancy {!seal} would compute,
     and equality with a stored state, all read off the buffer. *)
  let digest e = digest_of e.buf e.len
  let max_occupancy e = occupancy_of e.lay e.buf

  let equal e (s : state) = e.len = Array.length s.d && same e.buf s.d 0 e.len

  let seal ?digest e =
    let d = Array.sub e.buf 0 e.len in
    match digest with
    | None -> seal e.lay d
    | Some dig -> { lay = e.lay; d; dig; max_occ = occupancy_of e.lay d }

  let offset e i =
    let l = e.lay in
    let off = ref (o_msg l) in
    for j = 0 to i - 1 do
      off := !off + Array.unsafe_get e.buf (o_len l + j)
    done;
    !off

  let length e c =
    let i = chan_ix e.lay c in
    if i < 0 then 0 else e.buf.(o_len e.lay + i)

  let message e c j =
    let i = chan_ix_exn e.lay c in
    if j < 0 || j >= e.buf.(o_len e.lay + i) then invalid_arg "State.Edit.message";
    e.buf.(offset e i + j)

  let announced_id e v = node_exn e.lay v; e.buf.(o_ann e.lay + v)
  let set_pi e v p = node_exn e.lay v; e.buf.(v) <- p
  let set_announced e v p = node_exn e.lay v; e.buf.(o_ann e.lay + v) <- p
  let set_rho e c p = e.buf.(o_rho e.lay + chan_ix_exn e.lay c) <- p
  let best_choice_id inst e v = choose inst e.lay e.buf v

  (* Queue [i] loses its [drop] oldest messages (at most all of them) and
     gains [add] slots at its back; returns the index of the first new
     slot.  The kept messages move left by [drop] and the later queues by
     the net change, in the order that keeps the two moves apart. *)
  let resize e i ~drop ~add =
    let l = e.lay in
    let off = offset e i in
    let len = e.buf.(o_len l + i) in
    let drop = min drop len in
    let delta = add - drop in
    if e.len + delta > Array.length e.buf then begin
      let b = Array.make (2 * (e.len + delta + 4)) 0 in
      move e.buf 0 b 0 e.len;
      e.buf <- b
    end;
    let tail = off + len in
    if delta > 0 then begin
      move e.buf tail e.buf (tail + delta) (e.len - tail);
      move e.buf (off + drop) e.buf off (len - drop)
    end
    else begin
      move e.buf (off + drop) e.buf off (len - drop);
      move e.buf tail e.buf (tail + delta) (e.len - tail)
    end;
    e.len <- e.len + delta;
    e.buf.(o_len l + i) <- len + delta;
    tail - drop

  let consume e c ~set_rho:write kept i =
    let ci = chan_ix_exn e.lay c in
    if write then e.buf.(o_rho e.lay + ci) <- kept;
    if i > 0 then ignore (resize e ci ~drop:i ~add:0)

  let push e c msg =
    let at = resize e (chan_ix_exn e.lay c) ~drop:0 ~add:1 in
    e.buf.(at) <- msg

  let replace e c msg =
    let at = resize e (chan_ix_exn e.lay c) ~drop:max_int ~add:1 in
    e.buf.(at) <- msg
end

(* The single-component updates below are for callers outside the step
   kernel; each is one edit.  Rebinding a component to its current value
   returns the state itself. *)
let edit t f =
  let e = Edit.create () in
  Edit.load e t;
  f e;
  Edit.seal e

let with_pi_id t v p =
  if Arena.equal (pi_id t v) p then t else edit t (fun e -> Edit.set_pi e v p)

let with_announced_id t v p =
  if Arena.equal (announced_id t v) p then t else edit t (fun e -> Edit.set_announced e v p)

let with_rho_id t c p =
  if Arena.equal (rho_id t c) p then t else edit t (fun e -> Edit.set_rho e c p)

let push_channel t c msg = edit t (fun e -> Edit.push e c msg)

let drop_first_channel t c i =
  if i <= 0 || queue_length t c = 0 then t
  else edit t (fun e -> Edit.consume e c ~set_rho:false Arena.epsilon i)

let with_channels t chans =
  let l = t.lay in
  let total = Channel.Map.fold (fun c q acc -> ignore (chan_ix_exn l c); acc + List.length q) chans 0 in
  let d = Array.make (o_msg l + total) 0 in
  Array.blit t.d 0 d 0 (o_len l);
  let off = ref (o_msg l) in
  Array.iteri
    (fun i c ->
      let q = Channel.get chans c in
      d.(o_len l + i) <- List.length q;
      List.iter
        (fun m ->
          d.(!off) <- m;
          incr off)
        q)
    l.ids;
  seal l d

let debug_occupancy_ok t = t.max_occ = Channel.max_occupancy (channels t)
let best_choice_id inst t v = choose inst t.lay t.d v
let best_choice inst t v = Arena.path (best_choice_id inst t v)

let is_quiescent inst t =
  t.max_occ = 0
  && List.for_all
       (fun v ->
         let p = best_choice_id inst t v in
         Arena.equal p (pi_id t v) && Arena.equal p (announced_id t v))
       (Instance.nodes inst)

let equal a b =
  a == b
  || a.dig = b.dig
     && Array.length a.d = Array.length b.d
     && same a.d b.d 0 (Array.length a.d)

(* Length, then lexicographic over the flat arrays: the data [equal]
   compares. *)
let compare a b =
  let n = Array.length a.d in
  let c = Int.compare n (Array.length b.d) in
  if c <> 0 then c
  else
    let rec go i =
      if i >= n then 0
      else
        let c = Int.compare (Array.unsafe_get a.d i) (Array.unsafe_get b.d i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let pp inst ppf t =
  let pp_path = Instance.pp_path inst in
  Fmt.pf ppf "@[<v>pi: %a@,rho: %a@,queues: %a@]"
    Fmt.(
      list ~sep:(any ", ") (fun ppf v ->
          Fmt.pf ppf "%s:%a" (Instance.name inst v) pp_path (pi t v)))
    (Instance.nodes inst)
    Fmt.(
      list ~sep:(any ", ") (fun ppf (c, p) ->
          Fmt.pf ppf "%a=%a" (Channel.pp_id inst) c pp_path p))
    (rho_bindings t)
    Fmt.(
      list ~sep:(any ", ") (fun ppf (c, msgs) ->
          Fmt.pf ppf "%a=[%a]" (Channel.pp_id inst) c (list ~sep:semi pp_path) msgs))
    (Channel.bindings_paths (channels t))

open Engine

type config = { channel_bound : int; max_states : int }

let default_config = { channel_bound = 4; max_states = 200_000 }

let auto_domains () = max 1 (Domain.recommended_domain_count () - 1)

let default_domains () =
  match Sys.getenv_opt "DOMAINS" with
  | None -> 1
  | Some s -> (
    let s = String.trim s in
    if String.lowercase_ascii s = "auto" then auto_domains ()
    else match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 1)

(* The adaptive cutover (see [Driver.run]): parallel workers only engage
   once the sequential loop has grown the frontier past this threshold,
   so instances that explore in a few hundred states never pay any
   parallel overhead.  On a machine without hardware parallelism extra
   domains can only add minor-GC synchronization barriers, so the spill
   never triggers there at all. *)
let default_spill () =
  if Domain.recommended_domain_count () <= 1 then None else Some 64

type edge = { dst : int; label : Enumerate.labeled }

(* For reliable polling models (msg = All, no drops) only the newest message
   in a channel can ever become a known route, so collapsing every queue to
   its last element is an exact bisimulation and shrinks the state space
   dramatically. *)
let collapses (model : Model.t) =
  model.Model.rel = Model.Reliable && model.Model.msg = Model.M_all

(* The whole-state collapse and projection below are the reference the
   step kernel ({!Step.next}) reproduces at write time; the explorers only
   apply them where a state does not come out of the kernel: the initial
   state and snapshot resume.  The cached occupancy makes the no-op
   collapse (every queue already holds at most one message) O(1). *)
let collapse_queues st =
  if State.max_occupancy st > 1 then
    State.with_channels st
      (Channel.Map.map
         (fun msgs -> match List.rev msgs with [] -> [] | last :: _ -> [ last ])
         (State.channels st))
  else st

let collapse_state model st = if collapses model then collapse_queues st else st

(* Receiver-relevance projection: a route r in channel (u, v) (or already
   known as rho_v((u,v))) can only ever influence the execution through the
   candidate v·r, so whenever that extension is not permitted at v the value
   of r is observationally equivalent to epsilon ({!Step.relevant}).
   Projecting such values to epsilon merges states with identical future
   behavior.  Message *counts* are preserved (an epsilon message still
   occupies a queue slot), so the f and g bookkeeping is untouched.  A
   cheap dirtiness pre-pass keeps the common all-relevant case free of the
   channel rebuild. *)
let rec has_irrelevant inst v = function
  | [] -> false
  | r :: rest ->
    ((not (Spp.Arena.is_epsilon r)) && not (Step.relevant inst v r))
    || has_irrelevant inst v rest

let project_state inst st =
  let st =
    State.fold_rho_id
      (fun (c : Channel.id) r acc ->
        if Step.relevant inst c.Channel.dst r then acc
        else State.with_rho_id acc c Spp.Arena.epsilon)
      st st
  in
  let chans = State.channels st in
  let dirty (c : Channel.id) msgs = has_irrelevant inst c.Channel.dst msgs in
  if not (Channel.Map.exists dirty chans) then st
  else
    State.with_channels st
      (Channel.Map.mapi
         (fun (c : Channel.id) msgs ->
           List.map
             (fun r -> if Step.relevant inst c.Channel.dst r then r else Spp.Arena.epsilon)
             msgs)
         chans)

(* Where the search starts from a state the kernel did not produce. *)
let normalize inst ~collapse st =
  project_state inst (if collapse then collapse_queues st else st)

let tick metrics f = match metrics with Some m -> f m | None -> ()

(* ------------------------------------------------------------------ *)
(* The exploration driver, shared by every protocol: the intern table,
   the BFS with checkpoint/resume, the work-stealing phase and the
   counters.  It never looks inside a state beyond {!STATE}; everything
   protocol-specific comes in through a {!Driver.space}. *)

module type STATE = sig
  type t

  val equal : t -> t -> bool
  val digest : t -> int
  val max_occupancy : t -> int

  type draft

  val draft_digest : draft -> int
  val draft_occupancy : draft -> int
  val draft_equal : draft -> t -> bool
  val seal : draft -> digest:int -> t
end

module Sealed (S : sig
  type t

  val equal : t -> t -> bool
  val digest : t -> int
  val max_occupancy : t -> int
end) =
struct
  include S

  type draft = t

  let draft_digest = digest
  let draft_occupancy = max_occupancy
  let draft_equal = equal
  let seal d ~digest:_ = d
end

(* Domain-local counter buffer; padded past a cache line so adjacent
   workers' buffers never false-share.  [s_out] is the worker's scratch
   for {!Driver.expand}: the outcome of each label it stepped in the
   current group. *)
type wstats = {
  mutable s_interned : int;
  mutable s_dedup : int;
  mutable s_edges : int;
  mutable s_pruned : int;
  mutable s_truncated : int;
  mutable s_peak : int;
  mutable s_ample : int;
  mutable s_out : int array;
  mutable pad0 : int;
  mutable pad1 : int;
}

let fresh_stats () =
  {
    s_interned = 0;
    s_dedup = 0;
    s_edges = 0;
    s_pruned = 0;
    s_truncated = 0;
    s_peak = 0;
    s_ample = 0;
    s_out = [||];
    pad0 = 0;
    pad1 = 0;
  }

let merge_stats metrics ~interned stats_list =
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 stats_list in
  tick metrics (fun m ->
      Metrics.add_interned m interned;
      Metrics.add_dedup m (sum (fun w -> w.s_dedup));
      Metrics.add_edges m (sum (fun w -> w.s_edges));
      Metrics.add_pruned m (sum (fun w -> w.s_pruned));
      Metrics.add_truncated m (sum (fun w -> w.s_truncated));
      Metrics.observe_frontier m
        (List.fold_left (fun acc w -> max acc w.s_peak) 0 stats_list);
      Metrics.add_ample m (sum (fun w -> w.s_ample)))

(* A double-ended work queue under its own (rarely contended) lock.  The
   owner uses the back; thieves take batches from the front.  Slots are
   not cleared on pop: every parked state is also interned in the shard
   tables and retained by the result graph, so stale references cost
   nothing extra. *)
module Deque = struct
  type 'a t = {
    mu : Mutex.t;
    mutable buf : 'a array;
    mutable head : int; (* index of the front element *)
    mutable len : int;
  }

  let create () = { mu = Mutex.create (); buf = [||]; head = 0; len = 0 }

  let grow d seed =
    let cap = Array.length d.buf in
    let nbuf = Array.make (max 64 (2 * cap)) seed in
    for i = 0 to d.len - 1 do
      nbuf.(i) <- d.buf.((d.head + i) mod cap)
    done;
    d.buf <- nbuf;
    d.head <- 0

  let push_back d x =
    Mutex.lock d.mu;
    if d.len = Array.length d.buf then grow d x;
    d.buf.((d.head + d.len) mod Array.length d.buf) <- x;
    d.len <- d.len + 1;
    Mutex.unlock d.mu

  let pop_back d =
    Mutex.lock d.mu;
    let r =
      if d.len = 0 then None
      else begin
        d.len <- d.len - 1;
        Some d.buf.((d.head + d.len) mod Array.length d.buf)
      end
    in
    Mutex.unlock d.mu;
    r

  (* Up to half the victim's queue, capped; front first. *)
  let steal_front d ~max_n =
    Mutex.lock d.mu;
    let k = min max_n ((d.len + 1) / 2) in
    let r =
      if k = 0 then []
      else begin
        let cap = Array.length d.buf in
        let items = List.init k (fun i -> d.buf.((d.head + i) mod cap)) in
        d.head <- (d.head + k) mod cap;
        d.len <- d.len - k;
        items
      end
    in
    Mutex.unlock d.mu;
    r
end

module Driver (S : STATE) = struct
  (* The intern table: open addressing with linear probing.  Slot [s]
     holds a state in [keys.(s)] and its id in [ids.(s)] (-1: empty); at
     most half the slots are used.  A probe compares the stored state's
     digest first and the state only on a digest match.  It takes the key
     with its own equality, so a sealed state and a draft go through the
     same lookup.  Slots start at the digest's bits above the low six,
     which pick the parallel phase's shard.  The loops are top level, so
     a probe allocates no closure. *)
  module Intern = struct
    type t = { mutable ids : int array; mutable keys : S.t array; mutable count : int }

    (* [slots] is a power of two. *)
    let create dummy slots =
      { ids = Array.make slots (-1); keys = Array.make slots dummy; count = 0 }

    let rec probe (ids : int array) keys mask h eq x s =
      let id = Array.unsafe_get ids s in
      if id < 0 then -1
      else
        let k = Array.unsafe_get keys s in
        if S.digest k = h && eq x k then id else probe ids keys mask h eq x ((s + 1) land mask)

    let find t h eq x =
      let mask = Array.length t.keys - 1 in
      probe t.ids t.keys mask h eq x ((h lsr 6) land mask)

    let rec free (ids : int array) mask s =
      if ids.(s) < 0 then s else free ids mask ((s + 1) land mask)

    let insert ids keys st id =
      let mask = Array.length keys - 1 in
      let s = free ids mask ((S.digest st lsr 6) land mask) in
      ids.(s) <- id;
      keys.(s) <- st

    let iter f t = Array.iteri (fun s st -> if t.ids.(s) >= 0 then f st t.ids.(s)) t.keys

    (* [st] must not be in the table yet. *)
    let add t st id =
      if 2 * (t.count + 1) > Array.length t.keys then begin
        let slots = 2 * Array.length t.keys in
        let ids = Array.make slots (-1) and keys = Array.make slots st in
        iter (insert ids keys) t;
        t.ids <- ids;
        t.keys <- keys
      end;
      insert t.ids t.keys st id;
      t.count <- t.count + 1
  end

  type compact = { states : S.t array; csr : Fair.csr; pruned : bool; truncated : bool }

  type graph = {
    states : S.t array;
    adjacency : edge list array;
    pruned : bool;
    truncated : bool;
  }

  let view (c : compact) =
    let { Fair.first; dst; label } = c.csr in
    {
      states = c.states;
      adjacency =
        Array.init (Array.length first - 1) (fun i ->
            List.init (first.(i + 1) - first.(i)) (fun k ->
                let e = first.(i) + k in
                { dst = dst.(e); label = label.(e) }));
      pruned = c.pruned;
      truncated = c.truncated;
    }

  let of_view (g : graph) =
    let rows = Fair.Rows.create () in
    Array.iteri
      (fun i row ->
        List.iter (fun e -> Fair.Rows.add rows e.dst e.label) row;
        Fair.Rows.close rows i)
      g.adjacency;
    {
      states = g.states;
      csr = Fair.Rows.csr ~n:(Array.length g.adjacency) [ rows ];
      pruned = g.pruned;
      truncated = g.truncated;
    }

  type space = {
    initial : S.t;
    normalize : S.t -> S.t;
    successors : S.t -> Enumerate.group list;
    next : 'r. S.t -> Activation.t -> (S.draft Step.successor -> 'r) -> 'r;
    ample :
      (S.t ->
      (Enumerate.labeled * S.t Step.successor) list list ->
      (Enumerate.labeled * S.t Step.successor) list * bool)
      option;
  }

  type progress = {
    interned : S.t array;
    rows : Fair.Rows.t;
    frontier : int list;
    any_pruned : bool;
    any_truncated : bool;
    counters : Snapshot.counters;
  }

  (* How a loop interns: [intern stats push eq seal key h] looks [key]
     (digest [h], compared by [eq]) up and returns its id; on a miss it
     seals the key, adds it under a fresh id and hands it to [push], or
     returns -1 when the state bound discards it. *)
  type interner = {
    intern :
      'k.
      wstats ->
      (int * S.t -> unit) ->
      ('k -> S.t -> bool) ->
      ('k -> digest:int -> S.t) ->
      'k ->
      int ->
      int;
  }

  let keep st ~digest:_ = st

  (* One lookup in [tbl]; a miss takes the id [claim ()] gives, or is
     discarded when that is -1 (the state bound). *)
  let intern_in tbl ~claim stats push eq seal key h =
    let j = Intern.find tbl h eq key in
    if j >= 0 then begin
      stats.s_dedup <- stats.s_dedup + 1;
      j
    end
    else
      let i = claim () in
      if i < 0 then begin
        stats.s_truncated <- stats.s_truncated + 1;
        -1
      end
      else begin
        let st = seal key ~digest:h in
        Intern.add tbl st i;
        stats.s_interned <- stats.s_interned + 1;
        push (i, st);
        i
      end

  (* An [expand] outcome that is not a target id: the channel bound
     pruned the edge.  The state bound's is the interner's -1. *)
  let pruned = -2

  (* Every successor comes out of [sp.next] already in normal form (for
     SPP, projected and collapsed at write time: DESIGN.md §3g), so
     nothing here rescans a state.  Without a reduction a successor is
     looked up as the draft [sp.next] hands over and sealed only when it
     is new; POR's ample sets work on sealed states.  The row, appended to
     [rows], keeps the order of [sp.successors].

     Only one label per effect is stepped: a label whose group names an
     earlier representative ([rep.(k) < k]) has the same successor
     ({!Enumerate.group}), so it takes the representative's outcome, kept in
     [stats.s_out]: the target id or -1 or [pruned].  Its counters tick as
     its own step would have: a hit on the target, or the same truncation
     or pruning (neither bound loosens). *)
  let expand ~config sp stats ~intern ~push rows (i, st) =
    let prune () =
      stats.s_pruned <- stats.s_pruned + 1;
      pruned
    in
    let add_state st' =
      if S.max_occupancy st' > config.channel_bound then prune ()
      else intern.intern stats push S.equal keep st' (S.digest st')
    in
    let add_draft (n : S.draft Step.successor) =
      let d = n.Step.after in
      if S.draft_occupancy d > config.channel_bound then prune ()
      else intern.intern stats push S.draft_equal S.seal d (S.draft_digest d)
    in
    let reuse j =
      if j >= 0 then stats.s_dedup <- stats.s_dedup + 1
      else if j = pruned then stats.s_pruned <- stats.s_pruned + 1
      else stats.s_truncated <- stats.s_truncated + 1;
      j
    in
    let edge labeled j = if j >= 0 then Fair.Rows.add rows j labeled in
    let rec step_group (rep : int array) k = function
      | [] -> ()
      | (l : Enumerate.labeled) :: rest ->
        let r = Array.unsafe_get rep k in
        if r < k then edge l (reuse stats.s_out.(r))
        else begin
          let j = sp.next st l.Enumerate.entry add_draft in
          stats.s_out.(k) <- j;
          edge l j
        end;
        step_group rep (k + 1) rest
    in
    let groups = sp.successors st in
    let before = Fair.Rows.edges rows in
    (match sp.ample with
    | Some ample ->
      let sealed (n : S.draft Step.successor) =
        { n with Step.after = S.seal n.Step.after ~digest:(S.draft_digest n.Step.after) }
      in
      let stepped =
        List.map
          (fun (g : Enumerate.group) ->
            let out = Array.make (Array.length g.Enumerate.rep) None in
            List.mapi
              (fun k (l : Enumerate.labeled) ->
                let n =
                  match out.(g.Enumerate.rep.(k)) with
                  | Some n -> n
                  | None -> sp.next st l.Enumerate.entry sealed
                in
                out.(k) <- Some n;
                (l, n))
              g.Enumerate.labels)
          groups
      in
      let sel, proper = ample st stepped in
      if proper then stats.s_ample <- stats.s_ample + 1;
      List.iter (fun (l, n) -> edge l (add_state n.Step.after)) sel
    | None ->
      List.iter
        (fun (g : Enumerate.group) ->
          let n = Array.length g.Enumerate.rep in
          if Array.length stats.s_out < n then
            stats.s_out <- Array.make (max n (2 * Array.length stats.s_out)) 0;
          step_group g.Enumerate.rep 0 g.Enumerate.labels)
        groups);
    Fair.Rows.close rows i;
    stats.s_edges <- stats.s_edges + Fair.Rows.edges rows - before

  (* ---------------------------------------------------------------- *)
  (* The work-stealing phase.  Each worker owns a deque: it pushes and
     pops fresh states at the back (uncontended in the common case) and,
     when dry, steals a batch from the front of a victim's deque — the
     oldest, shallowest states, i.e. the largest unexplored subtrees.
     Termination is an atomic in-flight counter (states pushed anywhere
     but not yet fully expanded): children are counted before their
     parent is discharged, so the counter reaching zero is stable and
     means global exhaustion — no condition variables anywhere.  Counters
     are buffered per worker and merged into [metrics] once at join; the
     only shared hot-path writes are the intern table's striped locks and
     the two atomics (id counter, in-flight).

     Exploration order here is nondeterministic, hence so is the
     numbering beyond the sequential prefix — but the reachable state SET,
     [pruned]/[truncated], and every derived verdict match the sequential
     run (state 0 is always the initial state). *)

  let steal ?metrics ~domains ~interned config sp index seq_stats queue seq_rows =
    let max_states = max 1 config.max_states in
    let n_shards = 64 in
    let dummy = snd (Queue.peek queue) in
    let shards = Array.init n_shards (fun _ -> (Mutex.create (), Intern.create dummy 512)) in
    Intern.iter (fun st i -> Intern.add (snd shards.(S.digest st land (n_shards - 1))) st i) index;
    let counter = Atomic.make index.Intern.count in
    (* Claim the next state id, or -1 once the bound is exhausted. *)
    let rec claim_id () =
      let n = Atomic.get counter in
      if n >= max_states then -1
      else if Atomic.compare_and_set counter n (n + 1) then n
      else claim_id ()
    in
    let intern stats push eq seal key h =
      let mu, tbl = shards.(h land (n_shards - 1)) in
      Mutex.lock mu;
      let j = intern_in tbl ~claim:claim_id stats push eq seal key h in
      Mutex.unlock mu;
      j
    in
    let intern = { intern } in
    (* Split the frontier round-robin over per-worker deques and hand off
       to the persistent pool. *)
    let k = min (max 2 domains) (Pool.max_workers + 1) in
    let wstats = Array.init k (fun _ -> fresh_stats ()) in
    let rows_of = Array.init k (fun _ -> Fair.Rows.create ()) in
    let deques = Array.init k (fun _ -> Deque.create ()) in
    let in_flight = Atomic.make (Queue.length queue) in
    let ix = ref 0 in
    Queue.iter
      (fun item ->
        Deque.push_back deques.(!ix mod k) item;
        incr ix)
      queue;
    (* User-supplied code ([successors], or the step under it) may raise
       inside any worker.  A raise would skip that item's [in_flight]
       decrement, so termination-by-counter alone would leave every other
       worker spinning forever; instead the first error is recorded here,
       [abort] tells all workers to bail out of their loops, and the error
       is re-raised on the calling domain after the pool joins. *)
    let abort = Atomic.make false in
    let err_mu = Mutex.create () in
    let err = ref None in
    let record_error e bt =
      Mutex.lock err_mu;
      if !err = None then err := Some (e, bt);
      Mutex.unlock err_mu;
      Atomic.set abort true
    in
    let worker wid =
      let my = deques.(wid) in
      let stats = wstats.(wid) in
      let rows = rows_of.(wid) in
      let process item =
        (* Fresh successors are counted into [in_flight] before the parent
           is discharged, so the counter can only hit zero when no state is
           queued or being expanded anywhere. *)
        match
          let fresh = ref [] and n_fresh = ref 0 in
          expand ~config sp stats ~intern rows item ~push:(fun x ->
              fresh := x :: !fresh;
              incr n_fresh);
          if !n_fresh > 0 then begin
            let f = Atomic.fetch_and_add in_flight !n_fresh + !n_fresh in
            if f > stats.s_peak then stats.s_peak <- f;
            List.iter (Deque.push_back my) !fresh
          end
        with
        | () -> ignore (Atomic.fetch_and_add in_flight (-1))
        | exception e -> record_error e (Printexc.get_raw_backtrace ())
      in
      let try_steal () =
        let rec go off =
          if off >= k then []
          else
            match Deque.steal_front deques.((wid + off) mod k) ~max_n:32 with
            | [] -> go (off + 1)
            | stolen -> stolen
        in
        go 1
      in
      let rec loop idle =
        if Atomic.get abort then ()
        else
          match Deque.pop_back my with
          | Some item ->
            process item;
            loop 0
          | None ->
            if Atomic.get in_flight = 0 then ()
            else begin
              match try_steal () with
              | first :: rest ->
                List.iter (Deque.push_back my) rest;
                process first;
                loop 0
              | [] ->
                (* Nothing stealable but expansions are still in flight:
                   spin briefly, then yield the core so the expanding worker
                   can run (essential when domains outnumber cores). *)
                if idle < 64 then Domain.cpu_relax () else Unix.sleepf 5e-5;
                loop (min (idle + 1) 1000)
            end
      in
      loop 0
    in
    Pool.run (Pool.get ()) ~workers:k worker;
    (match !err with Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ());
    (* Merge: per-worker buffers into the shared metrics, rows into the
       CSR graph, shard tables into the state array. *)
    let all_stats = seq_stats :: Array.to_list wstats in
    let sum f = List.fold_left (fun acc w -> acc + f w) 0 all_stats in
    merge_stats metrics
      ~interned:(interned + Array.fold_left (fun acc w -> acc + w.s_interned) 0 wstats)
      all_stats;
    let n = Atomic.get counter in
    let states_arr = Array.make n dummy in
    Array.iter (fun (_, tbl) -> Intern.iter (fun st i -> states_arr.(i) <- st) tbl) shards;
    {
      states = states_arr;
      csr = Fair.Rows.csr ~n (seq_rows :: Array.to_list rows_of);
      pruned = sum (fun w -> w.s_pruned) > 0;
      truncated = sum (fun w -> w.s_truncated) > 0;
    }

  (* ---------------------------------------------------------------- *)
  (* The BFS.  The [max_states] bound is enforced at intern time: the
     graph never holds more than [max_states] states, every held state has
     an accurate adjacency row, and edges to states beyond the bound are
     dropped with [truncated] set (symmetric with channel-bound pruning).

     One sequential loop runs on the calling domain.  Without [pool] it
     runs to the end, writing [checkpoint]s on the way; with
     [pool = (domains, spill)] it stops once the frontier outgrows
     [spill], and its table is split into shards for the work-stealing
     phase ([steal]), so small state spaces never wake a worker.

     Counters accumulate in local buffers and merge into [metrics] once
     at the end, so a checkpoint can record the exploration's own exact
     totals even when the caller threads one metrics value through
     several phases. *)

  let run ?metrics ?checkpoint ?resume ?pool config sp =
    let max_states = max 1 config.max_states in
    let index = Intern.create sp.initial 2048 in
    let states = ref [] and n_states = ref 0 in
    let rows = match resume with Some p -> p.rows | None -> Fair.Rows.create () in
    let pruned = ref false and truncated = ref false in
    let queue = Queue.create () in
    let stats = fresh_stats () in
    let claim () =
      if !n_states >= max_states then -1
      else begin
        incr n_states;
        !n_states - 1
      end
    in
    let intern =
      { intern = (fun stats push eq seal key h -> intern_in index ~claim stats push eq seal key h) }
    in
    let push ((_, st) as x) =
      states := st :: !states;
      Queue.add x queue
    in
    (match resume with
    | Some p ->
      (* Saved states were interned in normal form; normalizing them again
         is the identity, and keeps [sp.next]'s invariant by
         construction. *)
      let saved = Array.map sp.normalize p.interned in
      Array.iteri
        (fun i st ->
          Intern.add index st i;
          states := st :: !states;
          incr n_states)
        saved;
      List.iter (fun i -> Queue.add (i, saved.(i)) queue) p.frontier;
      pruned := p.any_pruned;
      truncated := p.any_truncated;
      let c = p.counters in
      stats.s_interned <- c.Snapshot.interned;
      stats.s_dedup <- c.Snapshot.dedup;
      stats.s_edges <- c.Snapshot.edges;
      stats.s_pruned <- c.Snapshot.pruned_writes;
      stats.s_truncated <- c.Snapshot.truncated_interns;
      stats.s_peak <- c.Snapshot.peak_frontier;
      stats.s_ample <- c.Snapshot.ample
    | None ->
      let init = sp.normalize sp.initial in
      ignore (intern.intern stats push S.equal keep init (S.digest init)));
    let progress () =
      {
        interned = Array.of_list (List.rev !states);
        rows;
        frontier = List.rev (Queue.fold (fun acc (i, _) -> i :: acc) [] queue);
        any_pruned = !pruned || stats.s_pruned > 0;
        any_truncated = !truncated || stats.s_truncated > 0;
        counters =
          {
            Snapshot.interned = stats.s_interned;
            dedup = stats.s_dedup;
            edges = stats.s_edges;
            pruned_writes = stats.s_pruned;
            truncated_interns = stats.s_truncated;
            peak_frontier = stats.s_peak;
            ample = stats.s_ample;
          };
      }
    in
    let since_checkpoint = ref 0 in
    (* A checkpoint write is the natural moment to publish progress to the
       shared metrics, so a concurrent observer (the query daemon
       streaming job events) sees the interned count advance at checkpoint
       granularity instead of only at the final merge. *)
    let m_flushed = ref 0 in
    let flush_progress () =
      tick metrics (fun m ->
          Metrics.add_interned m (stats.s_interned - !m_flushed);
          m_flushed := stats.s_interned)
    in
    let spill = match pool with Some (_, spill) -> spill | None -> max_int in
    while (not (Queue.is_empty queue)) && Queue.length queue <= spill do
      expand ~config sp stats ~intern ~push rows (Queue.pop queue);
      stats.s_peak <- max stats.s_peak (Queue.length queue);
      match checkpoint with
      | Some (every, save) ->
        incr since_checkpoint;
        if !since_checkpoint >= every && not (Queue.is_empty queue) then begin
          since_checkpoint := 0;
          save (progress ());
          flush_progress ()
        end
      | None -> ()
    done;
    let interned = stats.s_interned - !m_flushed in
    match pool with
    | Some (domains, _) when not (Queue.is_empty queue) ->
      steal ?metrics ~domains ~interned config sp index stats queue rows
    | _ ->
      merge_stats metrics ~interned [ stats ];
      let states_arr = Array.of_list (List.rev !states) in
      {
        states = states_arr;
        csr = Fair.Rows.csr ~n:(Array.length states_arr) [ rows ];
        pruned = !pruned || stats.s_pruned > 0;
        truncated = !truncated || stats.s_truncated > 0;
      }
end

(* ------------------------------------------------------------------ *)
(* SPP, the driver's first instance: POR's ample sets and the snapshot
   codec are its hooks. *)

module Spp_state = struct
  include State

  type draft = State.Edit.t

  let draft_digest = State.Edit.digest
  let draft_occupancy = State.Edit.max_occupancy
  let draft_equal = State.Edit.equal
  let seal e ~digest = State.Edit.seal ~digest e
end

module D = Driver (Spp_state)

type compact = D.compact = {
  states : State.t array;
  csr : Fair.csr;
  pruned : bool;
  truncated : bool;
}

type graph = D.graph = {
  states : State.t array;
  adjacency : edge list array;
  pruned : bool;
  truncated : bool;
}

let view = D.view
let of_view = D.of_view

type checkpoint = { path : string; every : int }

let snap_edge dst (l : Enumerate.labeled) =
  {
    Snapshot.dst;
    label =
      {
        Snapshot.entry = l.Enumerate.entry;
        l_reads = l.Enumerate.reads;
        l_drops = l.Enumerate.drops;
        l_cleans = l.Enumerate.cleans;
      };
  }

(* Equal saved labels come back as one value, as the memo hands them out
   to a fresh run. *)
let unsnap_label shared (l : Snapshot.label) =
  match Hashtbl.find_opt shared l with
  | Some label -> label
  | None ->
    let label =
      {
        Enumerate.entry = l.Snapshot.entry;
        reads = l.Snapshot.l_reads;
        drops = l.Snapshot.l_drops;
        cleans = l.Snapshot.l_cleans;
      }
    in
    Hashtbl.add shared l label;
    label

let save_progress ~path ~config ~reduction inst (p : D.progress) =
  Snapshot.save ~path inst
    {
      Snapshot.channel_bound = config.channel_bound;
      max_states = config.max_states;
      reduction = Reduce.to_string reduction;
      states = p.D.interned;
      rows = Fair.Rows.to_list p.D.rows snap_edge;
      frontier = p.D.frontier;
      pruned = p.D.any_pruned;
      truncated = p.D.any_truncated;
      counters = p.D.counters;
    }

let progress_of_snapshot ~config ~reduction (snap : Snapshot.t) =
  if snap.Snapshot.channel_bound <> config.channel_bound then
    invalid_arg
      (Printf.sprintf "Explore: resume snapshot has channel_bound %d, config wants %d"
         snap.Snapshot.channel_bound config.channel_bound);
  if snap.Snapshot.max_states <> config.max_states then
    invalid_arg
      (Printf.sprintf "Explore: resume snapshot has max_states %d, config wants %d"
         snap.Snapshot.max_states config.max_states);
  (* A reduced graph is not a prefix of an unreduced one (nor of a
     differently-reduced one), so resuming under another reduction would
     silently weld two incompatible explorations together. *)
  if snap.Snapshot.reduction <> Reduce.to_string reduction then
    invalid_arg
      (Printf.sprintf
         "Explore: resume snapshot was written under reduction %s, run requests %s"
         snap.Snapshot.reduction (Reduce.to_string reduction));
  let shared = Hashtbl.create 256 and rows = Fair.Rows.create () in
  List.iter
    (fun (i, es) ->
      List.iter
        (fun (e : Snapshot.edge) ->
          Fair.Rows.add rows e.Snapshot.dst (unsnap_label shared e.Snapshot.label))
        es;
      Fair.Rows.close rows i)
    (List.rev snap.Snapshot.rows);
  {
    D.interned = snap.Snapshot.states;
    rows;
    frontier = snap.Snapshot.frontier;
    any_pruned = snap.Snapshot.pruned;
    any_truncated = snap.Snapshot.truncated;
    counters = snap.Snapshot.counters;
  }

let explore_with ?(config = default_config) ?(reduction = Reduce.No_reduction)
    ?domains ?spill ?metrics ?checkpoint ?resume inst ~successors ~collapse =
  (match checkpoint with
  | Some { every; _ } when every < 1 ->
    invalid_arg "Explore: checkpoint every must be >= 1"
  | _ -> ());
  let deterministic = checkpoint <> None || resume <> None in
  (* Checkpoint/resume are defined only for the deterministic sequential
     order (work-stealing numbering is nondeterministic).  An explicit
     request for parallelism alongside them is a contradiction the caller
     must resolve; an environment-derived default is downgraded and
     recorded in the metrics instead of being silently ignored. *)
  let domains =
    if deterministic then begin
      match domains with
      | Some d when d > 1 ->
        invalid_arg
          (Printf.sprintf
             "Explore: checkpoint/resume requires sequential exploration (got domains \
              = %d)"
             d)
      | Some _ -> 1
      | None ->
        let implied = default_domains () in
        if implied > 1 then
          tick metrics (fun m ->
              Metrics.set_downgrade m
                (Printf.sprintf
                   "checkpoint/resume forced domains = 1 (environment requested %d)"
                   implied));
        1
    end
    else match domains with Some d -> max 1 d | None -> default_domains ()
  in
  tick metrics (fun m -> Metrics.set_domains m domains);
  let pool =
    if domains = 1 then None
    else
      Option.map
        (fun s -> (domains, max 0 s))
        (match spill with Some _ -> spill | None -> default_spill ())
  in
  let resume = Option.map (progress_of_snapshot ~config ~reduction) resume in
  let checkpoint =
    Option.map
      (fun { path; every } -> (every, save_progress ~path ~config ~reduction inst))
      checkpoint
  in
  let space =
    {
      D.initial = State.initial inst;
      normalize = normalize inst ~collapse;
      successors;
      next = (fun st entry k -> Step.with_next ~project:true ~collapse inst st entry k);
      ample = (if reduction = Reduce.Por then Some Reduce.ample else None);
    }
  in
  Metrics.timed ?m:metrics "explore" (fun () ->
      D.run ?metrics ?checkpoint ?resume ?pool config space)

let explore_compact ?config ?reduction ?domains ?spill ?metrics ?checkpoint ?resume inst
    model =
  explore_with ?config ?reduction ?domains ?spill ?metrics ?checkpoint ?resume inst
    ~successors:(Enumerate.groups ?metrics inst model)
    ~collapse:(collapses model)

let explore ?config ?reduction ?domains ?spill ?metrics ?checkpoint ?resume inst model =
  view (explore_compact ?config ?reduction ?domains ?spill ?metrics ?checkpoint ?resume inst model)

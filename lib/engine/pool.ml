(* A persistent pool of parked worker domains.  Each worker owns a mutex +
   condition variable and a one-slot job mailbox; assigning a job is
   lock/store/signal, so the steady-state cost of a parallel region is a
   few syscalls instead of Domain.spawn's all-domain rendezvous. *)

type job = unit -> unit

type worker = {
  wmu : Mutex.t;
  wcond : Condition.t;
  mutable job : job option; (* full while a job is assigned or running *)
}

type stats = { size : int; spawned_total : int; runs : int }

type t = {
  mu : Mutex.t; (* guards [workers], [spawned_total], [runs] *)
  mutable workers : worker list; (* newest first; length = size *)
  mutable spawned_total : int;
  mutable runs : int;
}

let max_workers = 62

let create () = { mu = Mutex.create (); workers = []; spawned_total = 0; runs = 0 }

let the_pool = create ()
let get () = the_pool

let size t =
  Mutex.lock t.mu;
  let n = List.length t.workers in
  Mutex.unlock t.mu;
  n

let stats t : stats =
  Mutex.lock t.mu;
  let s =
    { size = List.length t.workers; spawned_total = t.spawned_total; runs = t.runs }
  in
  Mutex.unlock t.mu;
  s

(* Set in every pool domain: a job that itself calls [run] must not wait
   on pool mailboxes (possibly its own — deadlock); it degrades to inline
   sequential execution instead. *)
let in_worker = Domain.DLS.new_key (fun () -> false)

(* The worker loop never exits: parked domains cost one OS thread each and
   are reclaimed by process exit (they hold no resources needing cleanup,
   and the OCaml runtime tears down blocked domains on exit). *)
let worker_loop w () =
  Domain.DLS.set in_worker true;
  let rec loop () =
    Mutex.lock w.wmu;
    while w.job = None do
      Condition.wait w.wcond w.wmu
    done;
    let job = Option.get w.job in
    Mutex.unlock w.wmu;
    (* The job closure owns exception capture and completion signalling. *)
    job ();
    Mutex.lock w.wmu;
    w.job <- None;
    (* Wake a caller waiting in [assign] for this worker to free up. *)
    Condition.broadcast w.wcond;
    Mutex.unlock w.wmu;
    loop ()
  in
  loop ()

let spawn_worker t =
  let w = { wmu = Mutex.create (); wcond = Condition.create (); job = None } in
  t.spawned_total <- t.spawned_total + 1;
  ignore (Domain.spawn (worker_loop w) : unit Domain.t);
  w

(* Hand [job] to [w], waiting (briefly) if the worker is still finishing a
   job from a concurrent run.  [wcond] multiplexes two predicates (worker
   waiting for a job, other [assign] callers waiting for the slot), so the
   wakeup must be a broadcast: a signal could land on a waiting assigner
   instead of the parked worker, leaving the job assigned but never run. *)
let assign w job =
  Mutex.lock w.wmu;
  while w.job <> None do
    Condition.wait w.wcond w.wmu
  done;
  w.job <- Some job;
  Condition.broadcast w.wcond;
  Mutex.unlock w.wmu

let run t ~workers f =
  let workers = min workers (max_workers + 1) in
  if workers <= 1 then f 0
  else if Domain.DLS.get in_worker then
    (* Re-entrant call from inside a pool job: run the instances inline.
       Work-stealing callers remain correct — later instances observe the
       work already drained by earlier ones and return immediately. *)
    for i = 0 to workers - 1 do
      f i
    done
  else begin
    let n = workers - 1 in
    Mutex.lock t.mu;
    let missing = n - List.length t.workers in
    if missing > 0 then
      for _ = 1 to missing do
        t.workers <- spawn_worker t :: t.workers
      done;
    let chosen = List.filteri (fun i _ -> i < n) t.workers in
    t.runs <- t.runs + 1;
    Mutex.unlock t.mu;
    let lmu = Mutex.create () and lcond = Condition.create () in
    let remaining = ref n in
    let error = ref None in
    List.iteri
      (fun i w ->
        let idx = i + 1 in
        assign w (fun () ->
            (try f idx
             with e ->
               Mutex.lock lmu;
               if !error = None then error := Some e;
               Mutex.unlock lmu);
            Mutex.lock lmu;
            decr remaining;
            if !remaining = 0 then Condition.signal lcond;
            Mutex.unlock lmu))
      chosen;
    let caller_error = (try f 0; None with e -> Some e) in
    Mutex.lock lmu;
    while !remaining > 0 do
      Condition.wait lcond lmu
    done;
    Mutex.unlock lmu;
    match (caller_error, !error) with
    | Some e, _ | None, Some e -> raise e
    | None, None -> ()
  end

(* Items are pulled off a shared atomic index, so a slow item never holds
   back the rest; each result lands in its own slot. *)
let map t ~workers f items =
  let n = Array.length items in
  let workers = min workers n in
  if workers <= 1 then Array.map f items
  else begin
    let out = Array.make n None in
    let next = Atomic.make 0 in
    run t ~workers (fun _ ->
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            out.(i) <- Some (f items.(i));
            loop ()
          end
        in
        loop ());
    Array.map Option.get out
  end

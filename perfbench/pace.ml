(* The host's speed, sampled while the benchmark runs, and durations
   measured on a clock that runs at a fixed nominal speed.

   On a shared machine the speed of the core a process runs on changes by
   up to half within seconds and from one minute to the next, while the
   process's CPU time keeps pace with its wall time: a fixed loop takes
   0.17 s in one minute and 0.32 s in the next.  A timing taken over a run
   of 20 s, and the median of ten such runs, follows that drift.

   [start] arms a timer: every [period] seconds a fixed reference kernel
   runs in the benchmark's own thread, from a signal handler, and its
   duration is recorded.  The kernel does the same register-only integer
   work every time and allocates nothing, so its duration measures the
   speed of the core at that moment and does not depend on the library
   code under test.  [elapsed a b] is the time between [a] and [b] spent
   outside the kernel, with each stretch between two samples scaled by
   [nominal /. r], where [r] is the median kernel duration of the five
   samples around it.  A code change moves this figure by the same share
   as it moves the wall time; a slow phase of the host moves it much less
   (NOTES.md, "Host speed and the pace clock", gives the measurements).

   The timer interrupts blocking system calls, so only workloads that
   compute and touch regular files use it (check-deep, sweep-24,
   bgp-100k); serve-mixed, which sleeps and waits on sockets, does not. *)

let now = Unix.gettimeofday
let period = 0.025

(* The kernel's duration on the machine the benchmark was written on (a
   shared 2-core Xeon guest) at its usual speed: [elapsed] reports seconds
   at that speed. *)
let nominal = 0.00021
let kernel_iters = 100_000
let sink = ref 0

(* Four independent chains of integer multiplies, shifts and adds, kept
   in registers: the kernel's speed falls when another tenant's work
   contends for the core's execution units, as the benchmark's own does.
   It touches no memory, so the benchmark's own use of the caches cannot
   slow it: a kernel reading a 1 MB table followed the host about as well
   but took most of its time in cache misses, which a change to the
   program's memory traffic would move too.  A single dependent chain
   did not follow the host's slow phases. *)
let kernel () =
  let a = ref 1 and b = ref 2 and c = ref 3 and x = ref 12345 in
  for _ = 1 to kernel_iters do
    a := (!a * 31) + 7;
    b := !b lxor (!b lsl 5) lxor (!a lsr 3);
    c := !c + (!c lsr 3) + 1;
    x := ((!x * 1103515245) + 12345) land 0x3fffffff
  done;
  sink := !a + !b + !c + !x

(* Samples: kernel start and end times, in order. *)
let starts = ref (Array.make 4096 0.)
let stops = ref (Array.make 4096 0.)
let count = ref 0
let running = ref false

let record t0 t1 =
  if !count = Array.length !starts then begin
    let grow a = Array.append a (Array.make (Array.length a) 0.) in
    starts := grow !starts;
    stops := grow !stops
  end;
  !starts.(!count) <- t0;
  !stops.(!count) <- t1;
  incr count

let sample _ =
  let t0 = now () in
  kernel ();
  record t0 (now ())

let start () =
  if not !running then begin
    running := true;
    sample 0;
    Sys.set_signal Sys.sigalrm (Sys.Signal_handle sample);
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = period; it_value = period })
  end

let stop () =
  if !running then begin
    running := false;
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0. });
    Sys.set_signal Sys.sigalrm Sys.Signal_default
  end

let kernel_s i = !stops.(i) -. !starts.(i)

(* The median kernel duration of the five samples around sample [i]. *)
let local_r i =
  let lo = max 0 (i - 2) and hi = min (!count - 1) (i + 2) in
  let a = Array.init (hi - lo + 1) (fun k -> kernel_s (lo + k)) in
  Array.sort compare a;
  a.(Array.length a / 2)

let overlap a b lo hi = Float.max 0. (Float.min b hi -. Float.max a lo)

(* Index of the last sample that starts at or before [t], or -1. *)
let last_before t =
  let rec go lo hi = if lo >= hi then lo else
      let mid = (lo + hi + 1) / 2 in
      if !starts.(mid) <= t then go mid hi else go lo (mid - 1)
  in
  if !count = 0 || !starts.(0) > t then -1 else go 0 (!count - 1)

(* The time between [a] and [b] outside the kernel, at nominal speed.
   Without samples (the timer is off) it is the wall time. *)
let elapsed a b =
  let n = !count in
  if n = 0 then b -. a
  else begin
    (* Stretch [k] runs from the end of sample [k] to the start of sample
       [k + 1]; stretch -1 is everything before sample 0. *)
    let first = max (-1) (last_before a) in
    let acc = ref 0. and k = ref first in
    while !k < n && (!k < 0 || !stops.(!k) < b) do
      let lo = if !k < 0 then neg_infinity else !stops.(!k) in
      let hi = if !k + 1 < n then !starts.(!k + 1) else infinity in
      let r = local_r (max 0 (min !k (n - 1))) in
      acc := !acc +. (overlap a b lo hi *. nominal /. r);
      incr k
    done;
    !acc
  end

(* The kernel's median duration and its samples so far. *)
let summary () =
  let a = Array.init !count kernel_s in
  Array.sort compare a;
  ((if !count = 0 then nan else a.(!count / 2)), !count)


type sample = { converged : bool; stale : bool; steps : int; messages : int }

type summary = {
  runs : int;
  all_converged : bool;
  stale_runs : int;
  mean_steps : float;
  max_steps : int;
  mean_messages : float;
  max_messages : int;
}

let measure ?max_steps ?export inst sched =
  let r = Executor.run ?export ?max_steps inst sched in
  let trace = r.Executor.trace in
  let messages =
    List.fold_left
      (fun acc (s : Trace.step) -> acc + List.length s.Trace.outcome.Step.pushed)
      0 (Trace.steps trace)
  in
  let converged = r.Executor.stop = Executor.Converged in
  let stale =
    converged
    && not (Spp.Assignment.is_solution inst (State.assignment inst (Trace.final trace)))
  in
  { converged; stale; steps = Trace.length trace; messages }

let across_seeds ?max_steps ?export inst ~scheduler ~seeds =
  let samples = List.map (fun seed -> measure ?max_steps ?export inst (scheduler ~seed)) seeds in
  let n = List.length samples in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 samples in
  let maxi f = List.fold_left (fun acc s -> max acc (f s)) 0 samples in
  {
    runs = n;
    all_converged = List.for_all (fun s -> s.converged) samples;
    stale_runs = List.length (List.filter (fun s -> s.stale) samples);
    mean_steps = float_of_int (sum (fun s -> s.steps)) /. float_of_int (max n 1);
    max_steps = maxi (fun s -> s.steps);
    mean_messages = float_of_int (sum (fun s -> s.messages)) /. float_of_int (max n 1);
    max_messages = maxi (fun s -> s.messages);
  }

let pp_summary ppf s =
  Fmt.pf ppf "%d runs, %s%s; steps mean %.1f max %d; messages mean %.1f max %d" s.runs
    (if s.all_converged then "all converged" else "NOT all converged")
    (if s.stale_runs > 0 then Fmt.str " (%d stale)" s.stale_runs else "")
    s.mean_steps s.max_steps s.mean_messages s.max_messages

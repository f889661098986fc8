type stop = Converged | Cycle of { first : int; period : int } | Exhausted

let pp_stop_as converged ppf = function
  | Converged -> Fmt.string ppf converged
  | Cycle { first; period } -> Fmt.pf ppf "cycle (first seen at step %d, period %d)" first period
  | Exhausted -> Fmt.string ppf "exhausted"

let pp_stop = pp_stop_as "quiescent"

type 'state ended = { final : 'state; stop : stop; steps : int }

(* The one executor loop, for the SPP stack and every [Generic.Make (P)].
   Nothing is retained across iterations except the current state (and,
   for periodic schedules, the cycle-detection table), so memory stays
   O(state) no matter how many steps run; callers that need a full trace
   accumulate it themselves in [apply]. *)
module Loop (S : sig
  type t

  val equal : t -> t -> bool
  val digest : t -> int
end) =
struct
  (* Cycle detection: states seen per schedule phase. *)
  module Seen = Hashtbl.Make (struct
    type t = int * S.t

    let equal (p1, s1) (p2, s2) = p1 = p2 && S.equal s1 s2
    let hash (p, s) = Mix.mix3 0x59 p (S.digest s) land max_int
  end)

  let run ~max_steps ~apply ~converged init (sched : Scheduler.t) =
    let seen = Seen.create 97 in
    let rec loop index state entries =
      if index > max_steps then { final = state; stop = Exhausted; steps = index - 1 }
      else
        match Seq.uncons entries with
        | None -> { final = state; stop = Exhausted; steps = index - 1 }
        | Some (entry, rest) -> (
          let state' = apply index state entry in
          if converged state' then { final = state'; stop = Converged; steps = index }
          else
            match sched.Scheduler.period with
            | Some p when p > 0 -> (
              let key = (index mod p, state') in
              match Seen.find_opt seen key with
              | Some first ->
                { final = state'; stop = Cycle { first; period = index - first }; steps = index }
              | None ->
                Seen.add seen key index;
                loop (index + 1) state' rest)
            | _ -> loop (index + 1) state' rest)
    in
    loop 1 init sched.Scheduler.entries
end

module State_loop = Loop (State)

type run = { trace : Trace.t; stop : stop }

let check_model inst model entry =
  match model with
  | None -> ()
  | Some m ->
    if not (Model.validates (View.spp inst) m entry) then
      invalid_arg
        (Fmt.str "Executor: entry %a violates model %a" (Activation.pp inst) entry
           Model.pp m)

let record_outcome metrics (outcome : Step.outcome) =
  match metrics with
  | None -> ()
  | Some m ->
    Metrics.incr_steps m;
    Metrics.add_messages m (List.length outcome.Step.pushed)

let run_streaming ?export ?validate ?metrics ?(max_steps = 10_000) ?state ?on_step
    inst (sched : Scheduler.t) =
  let init = match state with Some s -> s | None -> State.initial inst in
  let apply index state entry =
    check_model inst validate entry;
    let outcome = Step.apply ?export inst state entry in
    record_outcome metrics outcome;
    Option.iter (fun f -> f { Trace.index; entry; outcome }) on_step;
    outcome.Step.state
  in
  Metrics.timed ?m:metrics "executor" (fun () ->
      State_loop.run ~max_steps ~apply ~converged:(State.is_quiescent inst) init sched)

let run_from ?export ?validate ?metrics ?max_steps ~state inst sched =
  let acc = ref [] in
  let r =
    run_streaming ?export ?validate ?metrics ?max_steps ~state
      ~on_step:(fun s -> acc := s :: !acc)
      inst sched
  in
  { trace = Trace.make inst state (List.rev !acc); stop = r.stop }

let run ?export ?validate ?metrics ?max_steps inst sched =
  run_from ?export ?validate ?metrics ?max_steps ~state:(State.initial inst) inst sched

let run_entries ?export ?validate ?metrics inst entries =
  let init = State.initial inst in
  let _, _, steps =
    List.fold_left
      (fun (state, index, acc) entry ->
        check_model inst validate entry;
        let outcome = Step.apply ?export inst state entry in
        record_outcome metrics outcome;
        (outcome.Step.state, index + 1, { Trace.index; entry; outcome } :: acc))
      (init, 1, []) entries
  in
  Trace.make inst init (List.rev steps)

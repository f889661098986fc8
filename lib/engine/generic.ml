(* The protocol-generic engine core (PR 7).

   [Make (P)] instantiates the Def. 2.2-2.4 execution semantics for any
   {!Protocol.S}: channel queues of interned message ids, per-node local
   state, XOR-folded incremental digests (the same {!Mix} algebra as the
   path-vector hot path), the three-phase activation step of Def. 2.3 and
   a convergence-detecting executor with cycle detection.  The concrete
   SPP stack ({!State}/{!Step}/{!Executor}) is kept as the specialized hot
   path — [Protocols.Path_vector] adapts it onto this interface, and the
   parity suite pins the two to identical verdicts and state counts.

   Everything that never inspects a message payload is shared, written
   once over the protocol's channel {!View} ([view]): entry checks and
   model validation ({!Activation.well_formed}, {!Model.validates}), the
   round-robin and synchronous schedules ({!Scheduler}), fairness
   bookkeeping and the timed batch loop ({!Timed.batch}, fed by [timed]).
   Only the lossy round robin, which has no SPP twin, lives here.

   OCaml functors are applicative, so [Make (Protocols.Gossip).State.t]
   names the same type at every application site — callers can apply the
   functor wherever convenient without threading a module around. *)

module IMap = Map.Make (Int)

module Make (P : Protocol.S) = struct
  module P = P

  (* ---------------------------------------------------------------- *)
  (* State: per-node locals plus channel queues, with the digest kept
     incrementally exactly like the SPP [State] (XOR of per-binding
     hashes; XOR is its own inverse, so replacing one binding is O(1)
     beyond the map update). *)

  module State = struct
    type t = {
      locals : P.local IMap.t; (* total: every node of the instance is bound *)
      chans : Channel.t;
      dig_locals : int;
      dig_chans : int;
      max_occ : int; (* longest queue in [chans]; 0 when all empty *)
    }

    let digest t = (t.dig_locals lxor t.dig_chans) land max_int
    let hash = digest
    let max_occupancy t = t.max_occ
    let channels t = t.chans
    let channel t c = Channel.get t.chans c
    let channel_length t c = Channel.length t.chans c
    let channel_bindings t = Channel.bindings t.chans

    let local t v =
      match IMap.find_opt v t.locals with
      | Some l -> l
      | None -> invalid_arg (P.name ^ ": unknown node")

    let h_local v l = Mix.mix3 0x58 v (P.local_digest v l)

    let initial inst =
      let locals, dig =
        List.fold_left
          (fun (m, dig) v ->
            let l = P.initial_local inst v in
            (IMap.add v l m, dig lxor h_local v l))
          (IMap.empty, 0) (P.nodes inst)
      in
      { locals; chans = Channel.empty; dig_locals = dig; dig_chans = 0; max_occ = 0 }

    let with_local t v l =
      let old = local t v in
      if P.equal_local old l then t
      else
        {
          t with
          locals = IMap.add v l t.locals;
          dig_locals = t.dig_locals lxor h_local v old lxor h_local v l;
        }

    let chans_digest_occ chans =
      Channel.Map.fold
        (fun c msgs (dig, occ) ->
          (dig lxor Mix.h_chan c msgs, max occ (List.length msgs)))
        chans (0, 0)

    let with_channels t chans =
      if t.chans == chans then t
      else
        let dig_chans, max_occ = chans_digest_occ chans in
        { t with chans; dig_chans; max_occ }

    (* Single-channel updates, the hot path: see the SPP [State] twin for
       the digest accounting. *)
    let push_channel t c msg =
      let old = Channel.get t.chans c in
      let h_old = Mix.h_chan c old in
      let h_new = Mix.h_chan_ext h_old msg in
      let dig_chans =
        t.dig_chans lxor (match old with [] -> 0 | _ -> h_old) lxor h_new
      in
      {
        t with
        chans = Channel.push t.chans c msg;
        dig_chans;
        max_occ = max t.max_occ (List.length old + 1);
      }

    let drop_first_channel t c i =
      if i <= 0 then t
      else
        match Channel.get t.chans c with
        | [] -> t
        | old ->
          let old_len = List.length old in
          let chans = Channel.drop_first t.chans c i in
          let kept = Channel.get chans c in
          let dig_chans =
            t.dig_chans lxor Mix.h_chan c old
            lxor (match kept with [] -> 0 | _ -> Mix.h_chan c kept)
          in
          let max_occ =
            if old_len < t.max_occ then t.max_occ else Channel.max_occupancy chans
          in
          { t with chans; dig_chans; max_occ }

    (* Exact last-message collapse for reliable polling (see
       [Modelcheck.Explore.collapse_state]); only valid when the protocol
       declares [receive] idempotent in everything but the last message. *)
    let collapse_last t =
      if t.max_occ <= 1 then t
      else
        with_channels t
          (Channel.Map.map
             (fun msgs -> match List.rev msgs with [] -> [] | last :: _ -> [ last ])
             t.chans)

    (* Receiver-relevance projection via the protocol's hooks; message
       counts are preserved, like the SPP [project_state]. *)
    let project inst t =
      let t =
        List.fold_left
          (fun acc v -> with_local acc v (P.project_local inst v (local acc v)))
          t (P.nodes inst)
      in
      let dirty =
        Channel.Map.exists
          (fun (c : Channel.id) msgs ->
            List.exists (fun m -> P.project_msg inst ~dst:c.Channel.dst m <> m) msgs)
          t.chans
      in
      if not dirty then t
      else
        with_channels t
          (Channel.Map.mapi
             (fun (c : Channel.id) msgs ->
               List.map (fun m -> P.project_msg inst ~dst:c.Channel.dst m) msgs)
             t.chans)

    let converged inst t =
      ((not P.drains) || Channel.Map.is_empty t.chans)
      && List.for_all (fun v -> P.node_converged inst v (local t v)) (P.nodes inst)

    let equal (a : t) b =
      a.dig_locals = b.dig_locals
      && a.dig_chans = b.dig_chans
      && IMap.equal P.equal_local a.locals b.locals
      && Channel.Map.equal (List.equal Int.equal) a.chans b.chans

    let compare (a : t) b =
      let c = IMap.compare P.compare_local a.locals b.locals in
      if c <> 0 then c
      else Channel.Map.compare (List.compare Int.compare) a.chans b.chans

    let pp inst ppf t =
      let pp_c ppf (c : Channel.id) =
        Fmt.pf ppf "(%s,%s)" (P.node_name inst c.Channel.src)
          (P.node_name inst c.Channel.dst)
      in
      Fmt.pf ppf "@[<v>locals: %a@,queues: %a@]"
        Fmt.(
          list ~sep:(any ", ") (fun ppf v ->
              Fmt.pf ppf "%s:%a" (P.node_name inst v) (P.pp_local inst v) (local t v)))
        (P.nodes inst)
        Fmt.(
          list ~sep:(any ", ") (fun ppf (c, msgs) ->
              Fmt.pf ppf "%a=[%a]" pp_c c
                (list ~sep:semi (fun ppf m -> P.pp_msg inst ppf m))
                msgs))
        (channel_bindings t)
  end

  (* ---------------------------------------------------------------- *)
  (* The channel view: every node must read all it can read.  Entry
     checks, model validation, schedules and the timed loop are the
     shared ones over this view. *)

  let view inst =
    {
      View.nodes = P.nodes inst;
      readable = P.in_channels inst;
      required = P.in_channels inst;
      node_name = P.node_name inst;
    }

  (* ---------------------------------------------------------------- *)
  (* The Def. 2.3 step, in the same three phases as the SPP [Step]:
     process every read (in read order, each folding its kept messages
     into the receiver's local state), then update every active node and
     push its announcements.  [P.update] only sees the node's own local,
     so applying updates sequentially in active order is equivalent to
     the compute-all-then-apply phasing. *)

  module Step = struct
    type outcome = {
      state : State.t;
      processed : (Channel.id * int list) list; (* messages processed, oldest first *)
      dropped : (Channel.id * int list) list; (* the processed messages dropped *)
      pushed : (Channel.id * int) list;
    }

    let apply ?(check = true) inst state (entry : Activation.t) =
      if check then
        Activation.require_well_formed ~who:(P.name ^ " Step.apply") (view inst) entry;
      (* Phase 1: process channels. *)
      let processed = ref [] and dropped = ref [] in
      let state =
        List.fold_left
          (fun st (r : Activation.read) ->
            let c = r.Activation.chan in
            let contents = State.channel st c in
            let m = List.length contents in
            let i =
              match r.Activation.count with
              | Activation.All -> m
              | Activation.Finite f -> min f m
            in
            if i = 0 then st
            else begin
              let procd = List.filteri (fun k _ -> k < i) contents in
              let kept, dropd =
                List.partition
                  (fun (j, _) -> not (Activation.IntSet.mem j r.Activation.drops))
                  (List.mapi (fun k msg -> (k + 1, msg)) procd)
              in
              processed := (c, procd) :: !processed;
              if dropd <> [] then dropped := (c, List.map snd dropd) :: !dropped;
              let v = c.Channel.dst in
              let lv =
                P.receive inst v (State.local st v) ~src:c.Channel.src
                  (List.map snd kept)
              in
              let st = State.with_local st v lv in
              State.drop_first_channel st c i
            end)
          state entry.Activation.reads
      in
      (* Phases 2-3: choices and announcements, in active order. *)
      let pushed = ref [] in
      let state =
        List.fold_left
          (fun st v ->
            let l, out = P.update inst v (State.local st v) in
            let st = State.with_local st v l in
            List.fold_left
              (fun st (c, msg) ->
                pushed := (c, msg) :: !pushed;
                State.push_channel st c msg)
              st out)
          state entry.Activation.active
      in
      {
        state;
        processed = List.rev !processed;
        dropped = List.rev !dropped;
        pushed = List.rev !pushed;
      }
  end

  (* ---------------------------------------------------------------- *)
  (* Deterministic fair lossiness, for measuring the U models without a
     model checker: the shared round-robin cycle is unrolled
     [every] times and every [every]-th read site (counted across the
     unrolled cycle) drops its oldest processed message.  Each channel is
     read [every] times per unrolled cycle with at most one drop, so every
     drop is followed by an undropped read of the same channel — the
     schedule is fair in the Def. 2.4 sense — and runs are reproducible
     without any RNG state in the artifact. *)
  let round_robin_lossy ?model_of ~every inst (m : Model.t) =
    if every < 2 then
      invalid_arg "Generic.round_robin_lossy: every must be >= 2 (fairness)";
    if m.Model.rel = Model.Reliable then
      invalid_arg "Generic.round_robin_lossy: drops require an unreliable model";
    let base = Scheduler.round_robin_cycle ?model_of (view inst) m in
    let ctr = ref 0 in
    let cycle =
      List.concat_map
        (fun _round ->
          List.map
            (fun (e : Activation.t) ->
              let reads =
                List.map
                  (fun (r : Activation.read) ->
                    let k = !ctr in
                    incr ctr;
                    if k mod every = 0 then
                      { r with Activation.drops = Activation.IntSet.singleton 1 }
                    else r)
                  e.Activation.reads
              in
              { e with Activation.reads })
            base)
        (List.init every Fun.id)
    in
    {
      (Scheduler.cycle cycle) with
      Scheduler.description =
        Fmt.str "%s/round-robin-lossy/%a/every=%d" P.name Model.pp m every;
    }

  (* ---------------------------------------------------------------- *)
  (* Executor: run a schedule to convergence, a repeated state (cycle) or
     the step bound, counting messages and drops along the way.  The loop
     and the stop type are the SPP executor's ([Executor] below still
     names the engine's module until this one is closed). *)

  module Executor = struct
    type stop = Executor.stop =
      | Converged
      | Cycle of { first : int; period : int }
      | Exhausted

    let pp_stop = Executor.pp_stop_as "converged"

    type step_record = { index : int; entry : Activation.t; outcome : Step.outcome }

    type run = {
      stop : stop;
      steps : int;
      messages : int;
      drops : int;
      final : State.t;
    }

    module Loop = Executor.Loop (State)

    (* Unlike the SPP executor, a converged start state stops the run at
       step 0. *)
    let run ?validate ?(max_steps = 10_000) ?on_step inst (sched : Scheduler.t) =
      let messages = ref 0 and drops = ref 0 in
      let apply index state entry =
        (match validate with
        | Some ok when not (ok entry) ->
          invalid_arg (Fmt.str "%s Executor: schedule entry violates the model" P.name)
        | _ -> ());
        let outcome = Step.apply inst state entry in
        messages := !messages + List.length outcome.Step.pushed;
        drops :=
          !drops
          + List.fold_left (fun acc (_, l) -> acc + List.length l) 0 outcome.Step.dropped;
        Option.iter (fun f -> f { index; entry; outcome }) on_step;
        outcome.Step.state
      in
      let init = State.initial inst in
      let { Executor.final; stop; steps } =
        if State.converged inst init then { Executor.final = init; stop = Converged; steps = 0 }
        else Loop.run ~max_steps ~apply ~converged:(State.converged inst) init sched
      in
      { stop; steps; messages = !messages; drops = !drops; final }

    let converges ?max_steps inst sched =
      match (run ?max_steps inst sched).stop with
      | Converged -> true
      | Cycle _ | Exhausted -> false
  end

  (* ---------------------------------------------------------------- *)
  (* The timed simulator's stack ({!Timed.batch}): a step changes a
     choice when it pushes a message. *)

  let timed inst =
    {
      Timed.view = view inst;
      initial = State.initial inst;
      step =
        (fun st entry ->
          let o = Step.apply inst st entry in
          ( o.Step.state,
            {
              Timed.processed = List.map (fun (c, msgs) -> (c, List.length msgs)) o.Step.processed;
              pushed = List.map fst o.Step.pushed;
              changed = o.Step.pushed <> [];
            } ));
      converged = State.converged inst;
    }
end

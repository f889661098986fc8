(* The protocol-generic engine core (PR 7).

   [Make (P)] instantiates the Def. 2.2-2.4 execution semantics for any
   {!Protocol.S}: channel queues of interned message ids, per-node local
   state, XOR-folded incremental digests (the same {!Mix} algebra as the
   path-vector hot path), the three-phase activation step of Def. 2.3, a
   convergence-detecting executor with cycle detection, model validation
   parametric in the protocol's channel sets, and the batch-MRAI timed
   wrapper.  The concrete SPP stack ({!State}/{!Step}/{!Executor}) is kept
   as the specialized hot path — [Protocols.Path_vector] adapts it onto
   this interface, and the parity suite pins the two to identical verdicts
   and state counts.

   Schedulers, activation entries, the 24-model taxonomy and {!Pool} are
   shared as-is: none of them ever inspect a message payload.

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
  (* Entry well-formedness against the protocol's channel sets: the same
     checks as [Activation.well_formed], with "channel exists" meaning
     "the receiver can read it". *)

  let well_formed inst (t : Activation.t) =
    let errs = ref [] in
    let add e = errs := e :: !errs in
    if t.Activation.active = [] then add Activation.Empty_active;
    let seen = ref [] in
    List.iter
      (fun (r : Activation.read) ->
        let c = r.Activation.chan in
        if
          not
            (List.exists (Channel.equal_id c) (P.in_channels inst c.Channel.dst))
        then add (Activation.Unknown_channel c);
        if not (List.mem c.Channel.dst t.Activation.active) then
          add (Activation.Reader_not_active c);
        if List.exists (Channel.equal_id c) !seen then
          add (Activation.Duplicate_channel c);
        seen := c :: !seen;
        (match r.Activation.count with
        | Activation.Finite n when n < 0 -> add (Activation.Negative_count c)
        | Activation.Finite _ | Activation.All -> ());
        match r.Activation.count with
        | Activation.Finite 0 ->
          if not (Activation.IntSet.is_empty r.Activation.drops) then
            add (Activation.Bad_drops c)
        | Activation.Finite n ->
          if Activation.IntSet.exists (fun i -> i < 1 || i > n) r.Activation.drops
          then add (Activation.Bad_drops c)
        | Activation.All ->
          if Activation.IntSet.exists (fun i -> i < 1) r.Activation.drops then
            add (Activation.Bad_drops c))
      t.Activation.reads;
    List.rev !errs

  let pp_error inst ppf (err : Activation.error) =
    let pp_c ppf (c : Channel.id) =
      Fmt.pf ppf "(%s,%s)" (P.node_name inst c.Channel.src)
        (P.node_name inst c.Channel.dst)
    in
    match err with
    | Activation.Empty_active -> Fmt.string ppf "no active node"
    | Activation.Unknown_channel c ->
      Fmt.pf ppf "channel %a is not readable in this protocol instance" pp_c c
    | Activation.Reader_not_active c ->
      Fmt.pf ppf "receiver of %a is not active" pp_c c
    | Activation.Duplicate_channel c -> Fmt.pf ppf "channel %a read twice" pp_c c
    | Activation.Negative_count c ->
      Fmt.pf ppf "negative message count on %a" pp_c c
    | Activation.Bad_drops c -> Fmt.pf ppf "invalid drop set on %a" pp_c c

  (* Model validation over the protocol's channel sets.  [?model_of] gives
     the heterogeneous (per-node) variant — the generic counterpart of
     {!Hetero}; [validates_multi] is the counterpart of {!Multi}. *)

  let validates ?model_of inst (m : Model.t) (entry : Activation.t) =
    let model_of = match model_of with Some f -> f | None -> fun _ -> m in
    well_formed inst entry = []
    &&
    match entry.Activation.active with
    | [ v ] ->
      Model.node_violations_for
        ~required:(P.in_channels inst v)
        (model_of v) entry.Activation.reads
      = []
    | _ -> false

  let validates_multi ?model_of inst (m : Model.t) (entry : Activation.t) =
    let model_of = match model_of with Some f -> f | None -> fun _ -> m in
    well_formed inst entry = []
    && entry.Activation.active <> []
    && List.for_all
         (fun v ->
           let reads =
             List.filter
               (fun (r : Activation.read) -> r.Activation.chan.Channel.dst = v)
               entry.Activation.reads
           in
           Model.node_violations_for
             ~required:(P.in_channels inst v)
             (model_of v) reads
           = [])
         entry.Activation.active

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
        (match well_formed inst entry with
        | [] -> ()
        | e :: _ ->
          invalid_arg (Fmt.str "%s Step.apply: %a" P.name (pp_error inst) e));
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
  (* Schedules over the protocol's channel sets: the generic counterparts
     of [Scheduler.round_robin] (with the heterogeneous [?model_of] of
     {!Hetero.round_robin}) and [Multi.synchronous], plus a deterministic
     lossy variant for measuring the U models without a model checker. *)

  let max_count (m : Model.t) =
    match m.Model.msg with
    | Model.M_one -> Activation.Finite 1
    | Model.M_some | Model.M_forced | Model.M_all -> Activation.All

  let round_robin_cycle ?model_of inst (m : Model.t) =
    let model_of = match model_of with Some f -> f | None -> fun _ -> m in
    List.concat_map
      (fun v ->
        let mv = model_of v in
        let count = max_count mv in
        let chans = P.in_channels inst v in
        match mv.Model.nbr with
        | Model.N_one -> (
          match chans with
          | [] -> [ Activation.single v [] ]
          | chans ->
            List.map
              (fun c -> Activation.single v [ Activation.read ~count c ])
              chans)
        | Model.N_multi | Model.N_every ->
          [ Activation.single v (List.map (fun c -> Activation.read ~count c) chans) ])
      (P.nodes inst)

  let round_robin ?model_of inst m =
    {
      (Scheduler.cycle (round_robin_cycle ?model_of inst m)) with
      Scheduler.description = Fmt.str "%s/round-robin/%a" P.name Model.pp m;
    }

  (* Deterministic fair lossiness: the base round-robin cycle is unrolled
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
    let base = round_robin_cycle ?model_of inst m in
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

  let synchronous inst (m : Model.t) =
    let count = max_count m in
    let reads =
      List.concat_map
        (fun v -> List.map (fun c -> Activation.read ~count c) (P.in_channels inst v))
        (P.nodes inst)
    in
    let entry = Activation.entry ~active:(P.nodes inst) ~reads in
    {
      (Scheduler.cycle [ entry ]) with
      Scheduler.description = Fmt.str "%s/synchronous/%a" P.name Model.pp m;
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
  (* Batch-mode timed semantics with MRAI, the generic counterpart of
     {!Timed} ([Batch] mode): per tick, every node whose MRAI divides the
     clock activates and processes exactly the messages that have arrived
     by now; pushes are stamped with the link delay. *)

  module Timed = struct
    type result = {
      converged : bool;
      finish_time : int;
      last_change : int;
      messages : int;
      activations : int;
      drops : int;
      final : State.t;
    }

    let run ?(mrai = fun _ -> 1) ?(link_delay = fun _ -> 1) ?(horizon = 100_000)
        inst =
      let messages = ref 0 and activations = ref 0 and last_change = ref 0 in
      let state = ref (State.initial inst) in
      let arrivals = ref Channel.Map.empty in
      let arrivals_of c =
        match Channel.Map.find_opt c !arrivals with Some l -> l | None -> []
      in
      let arrived c ~now =
        List.length (List.filter (fun t -> t <= now) (arrivals_of c))
      in
      let finish = ref None in
      let now = ref 0 in
      if State.converged inst !state then finish := Some 0;
      while !finish = None && !now <= horizon do
        List.iter
          (fun v ->
            let interval = max 1 (mrai v) in
            if !now mod interval = 0 then begin
              let reads =
                List.filter_map
                  (fun c ->
                    let k = arrived c ~now:!now in
                    if k = 0 then None
                    else Some (Activation.read ~count:(Activation.Finite k) c))
                  (P.in_channels inst v)
              in
              let entry = Activation.single v reads in
              let outcome = Step.apply inst !state entry in
              (* pops *)
              List.iter
                (fun (c, msgs) ->
                  let k = List.length msgs in
                  let rec drop n l =
                    if n = 0 then l
                    else match l with [] -> [] | _ :: t -> drop (n - 1) t
                  in
                  arrivals := Channel.Map.add c (drop k (arrivals_of c)) !arrivals)
                outcome.Step.processed;
              (* pushes, stamped with propagation delay *)
              List.iter
                (fun (c, _) ->
                  arrivals :=
                    Channel.Map.add c
                      (arrivals_of c @ [ !now + link_delay c ])
                      !arrivals)
                outcome.Step.pushed;
              state := outcome.Step.state;
              incr activations;
              messages := !messages + List.length outcome.Step.pushed;
              if outcome.Step.pushed <> [] then last_change := !now
            end)
          (P.nodes inst);
        if State.converged inst !state then finish := Some !now;
        incr now
      done;
      {
        converged = State.converged inst !state;
        finish_time = (match !finish with Some t -> t | None -> horizon);
        last_change = !last_change;
        messages = !messages;
        activations = !activations;
        drops = 0;
        final = !state;
      }

    let mrai_sweep ?(intervals = [ 1; 2; 4; 8; 16 ]) ?link_delay ?horizon inst =
      List.map
        (fun i -> (i, run ~mrai:(fun _ -> i) ?link_delay ?horizon inst))
        intervals
  end
end

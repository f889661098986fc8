type t = {
  entries : Activation.t Seq.t;
  period : int option;
  description : string;
}

let max_count (m : Model.t) =
  match m.Model.msg with
  | Model.M_one -> Activation.Finite 1
  | Model.M_some | Model.M_forced | Model.M_all -> Activation.All

let round_robin_cycle ?model_of (view : View.t) m =
  let model_of = Option.value model_of ~default:(fun _ -> m) in
  List.concat_map
    (fun v ->
      let mv = model_of v in
      let count = max_count mv in
      match mv.Model.nbr with
      | Model.N_one -> (
        (* One entry per (node, channel); a node without channels (the SPP
           destination under the generic view, or a node disconnected by a
           failure) still activates, with no reads, so that it keeps
           re-evaluating its choice. *)
        match view.readable v with
        | [] -> [ Activation.single v [] ]
        | chans -> List.map (fun c -> Activation.single v [ Activation.read ~count c ]) chans)
      | Model.N_multi | Model.N_every ->
        [ Activation.single v (List.map (fun c -> Activation.read ~count c) (view.required v)) ])
    view.nodes

let forever (cycle : Activation.t list) : Activation.t Seq.t =
  if cycle = [] then
    invalid_arg "Scheduler.forever: empty cycle (nothing to repeat)";
  let arr = Array.of_list cycle in
  let n = Array.length arr in
  Seq.unfold (fun i -> Some (arr.(i mod n), i + 1)) 0

let cycle entries =
  {
    entries = forever entries;
    period = Some (List.length entries);
    description = "scripted-cycle";
  }

let round_robin_of ?model_of view m =
  {
    (cycle (round_robin_cycle ?model_of view m)) with
    description = Fmt.str "round-robin/%a" Model.pp m;
  }

let round_robin inst m = round_robin_of (View.spp inst) m

let synchronous (view : View.t) m =
  let count = max_count m in
  let reads =
    List.concat_map
      (fun v -> List.map (fun c -> Activation.read ~count c) (view.required v))
      view.nodes
  in
  {
    (cycle [ Activation.entry ~active:view.nodes ~reads ]) with
    description = Fmt.str "synchronous/%a" Model.pp m;
  }

(* Randomized fair scheduler.  Tracked channels ({!View.tracked} of the
   SPP view) carry an age: steps since last read.  When some age exceeds
   [age_limit] the oldest channel is read by force.  Under unreliable
   models, processed messages are dropped with probability ~1/4 except on
   forced activations, which never drop — so every dropped message on a
   channel is followed by a later undropped read of that channel. *)
let random inst (m : Model.t) ~seed =
  let rng0 = Random.State.make [| seed; 0x5eed |] in
  let view = View.spp inst in
  let tracked = View.tracked view in
  let age_limit = 4 * List.length tracked in
  let nodes = Array.of_list view.nodes in
  let pick_count rng forced_len =
    match m.Model.msg with
    | Model.M_one -> Activation.Finite 1
    | Model.M_all -> Activation.All
    | Model.M_forced ->
      if Random.State.bool rng then Activation.All
      else Activation.Finite (1 + Random.State.int rng 3)
    | Model.M_some ->
      (match Random.State.int rng 4 with
      | 0 -> Activation.All
      | 1 when not forced_len -> Activation.Finite 0
      | n -> Activation.Finite n)
  in
  (* Drops are only generated on interior indices of a finite batch (the
     last processed message is always kept), so every dropped message is
     followed by a non-dropped one within the same read: the resulting
     schedule satisfies Def. 2.4's drop condition no matter what the
     channels contain.  Dropping a possibly-final message could strand the
     execution in a stale dead end that fairness excludes. *)
  let pick_drops rng ~forced count =
    if m.Model.rel = Model.Reliable || forced then Activation.IntSet.empty
    else
      match count with
      | Activation.All | Activation.Finite 0 | Activation.Finite 1 ->
        Activation.IntSet.empty
      | Activation.Finite n ->
        let rec collect acc j =
          if j > n - 1 then acc
          else
            collect
              (if Random.State.int rng 4 = 0 then Activation.IntSet.add j acc else acc)
              (j + 1)
        in
        collect Activation.IntSet.empty 1
  in
  let entry_for rng v ~must_read =
    let chans = view.required v in
    let chosen =
      match m.Model.nbr with
      | Model.N_every -> chans
      | Model.N_one ->
        (* N_one needs exactly one read when the node has channels; a node
           without any still activates with no reads. *)
        (match must_read with
        | Some c -> [ c ]
        | None ->
          (match view.readable v with
          | [] -> []
          | l -> [ List.nth l (Random.State.int rng (List.length l)) ]))
      | Model.N_multi ->
        let picked = List.filter (fun _ -> Random.State.bool rng) chans in
        (match must_read with
        | Some c when not (List.exists (Channel.equal_id c) picked) -> c :: picked
        | _ -> picked)
    in
    let reads =
      List.map
        (fun c ->
          let forced =
            match must_read with Some f -> Channel.equal_id f c | None -> false
          in
          let count = pick_count rng forced in
          let count =
            (* A forced read must actually consume: avoid Finite 0. *)
            match (count, forced) with
            | Activation.Finite 0, true -> Activation.All
            | c, _ -> c
          in
          { Activation.chan = c; count; drops = pick_drops rng ~forced count })
        chosen
    in
    Activation.single v reads
  in
  let step (rng, ages) =
    let overdue =
      List.filter (fun (c : Channel.id) ->
          match Channel.Map.find_opt c ages with
          | Some a -> a >= age_limit
          | None -> false)
        tracked
    in
    let must_read, v =
      match overdue with
      | c :: _ -> (Some c, c.Channel.dst)
      | [] -> (None, nodes.(Random.State.int rng (Array.length nodes)))
    in
    let entry = entry_for rng v ~must_read in
    let read_set = List.map (fun (r : Activation.read) -> r.Activation.chan) entry.Activation.reads in
    let ages =
      List.fold_left
        (fun m c ->
          let read = List.exists (Channel.equal_id c) read_set in
          let prev = match Channel.Map.find_opt c m with Some a -> a | None -> 0 in
          Channel.Map.add c (if read then 0 else prev + 1) m)
        Channel.Map.empty tracked
    in
    Some (entry, (rng, ages))
  in
  {
    entries = Seq.unfold step (rng0, Channel.Map.empty);
    period = None;
    description = Fmt.str "random/%a/seed=%d" Model.pp m seed;
  }

let of_entries ?period entries =
  { entries = List.to_seq entries; period; description = "scripted" }

let prefixed pre cyc =
  {
    entries = Seq.append (List.to_seq pre) (forever cyc);
    period = Some (List.length cyc);
    description = "scripted-prefix+cycle";
  }

let prefix n t = List.of_seq (Seq.take n t.entries)

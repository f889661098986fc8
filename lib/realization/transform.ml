open Engine
open Spp

type rule =
  | Embed
  | Widen_multi_to_every
  | Split_multi_to_one
  | Serialize_r1s_to_r1o
  | Serialize_u1s_to_u1o
  | Coalesce_u1o_to_r1s

let pp_rule ppf r =
  Fmt.string ppf
    (match r with
    | Embed -> "embed (Prop. 3.3)"
    | Widen_multi_to_every -> "widen M->E (Prop. 3.4)"
    | Split_multi_to_one -> "split M->1 (Thm. 3.5)"
    | Serialize_r1s_to_r1o -> "serialize R1S->R1O (Prop. 3.6)"
    | Serialize_u1s_to_u1o -> "serialize U1S->U1O (Prop. 3.6)"
    | Coalesce_u1o_to_r1s -> "coalesce U1O->R1S (Thm. 3.7)")

let rule_level = function
  | Embed | Widen_multi_to_every | Coalesce_u1o_to_r1s -> Relation.Exact
  | Split_multi_to_one | Serialize_u1s_to_u1o -> Relation.Repetition
  | Serialize_r1s_to_r1o -> Relation.Subsequence

type edge = { rule : rule; source : Model.t; target : Model.t }

let edges =
  let m = Model.make in
  let rels = [ Model.Reliable; Model.Unreliable ] in
  let msgs = [ Model.M_one; Model.M_some; Model.M_forced; Model.M_all ] in
  let embeds =
    List.concat_map
      (fun source ->
        List.filter_map
          (fun target ->
            if (not (Model.equal source target)) && Model.includes target source then
              Some { rule = Embed; source; target }
            else None)
          Model.all)
      Model.all
  in
  let widens =
    List.map
      (fun rel ->
        {
          rule = Widen_multi_to_every;
          source = m rel Model.N_multi Model.M_some;
          target = m rel Model.N_every Model.M_some;
        })
      rels
  in
  let splits =
    List.concat_map
      (fun rel ->
        List.map
          (fun msg ->
            {
              rule = Split_multi_to_one;
              source = m rel Model.N_multi msg;
              target = m rel Model.N_one msg;
            })
          msgs)
      rels
  in
  embeds @ widens @ splits
  @ [
      {
        rule = Serialize_r1s_to_r1o;
        source = m Model.Reliable Model.N_one Model.M_some;
        target = m Model.Reliable Model.N_one Model.M_one;
      };
      {
        rule = Serialize_u1s_to_u1o;
        source = m Model.Unreliable Model.N_one Model.M_some;
        target = m Model.Unreliable Model.N_one Model.M_one;
      };
      {
        rule = Coalesce_u1o_to_r1s;
        source = m Model.Unreliable Model.N_one Model.M_one;
        target = m Model.Reliable Model.N_one Model.M_some;
      };
    ]

(* Simulate a source run, yielding (state_before, entry, outcome) triples. *)
let simulate inst entries =
  let init = State.initial inst in
  let _, acc =
    List.fold_left
      (fun (st, acc) entry ->
        let outcome = Step.apply inst st entry in
        (outcome.Step.state, (st, entry, outcome) :: acc))
      (init, []) entries
  in
  List.rev acc

let the_single_active (entry : Activation.t) =
  match entry.Activation.active with
  | [ v ] -> v
  | _ -> invalid_arg "Transform: single-node entry expected"

let the_single_read (entry : Activation.t) =
  match entry.Activation.reads with
  | [ r ] -> r
  | _ -> invalid_arg "Transform: single-read entry expected"

let effective_count (r : Activation.read) ~available =
  match r.Activation.count with
  | Activation.All -> available
  | Activation.Finite f -> min f available

(* A read that is always a no-op: one message from a channel into the
   destination (never tracked) if the node has such a channel, otherwise a
   zero-message read.  Used to keep an announcing step alive when all its
   real reads are elided. *)
let harmless_read inst v ~count =
  match Instance.neighbors inst v with
  | u :: _ when v = Instance.dest inst -> Activation.read ~count (Channel.id ~src:u ~dst:v)
  | _ -> invalid_arg "Transform: no harmless read available"

(* A target entry that provably changes nothing, used in place of source
   steps whose own effect is nil so that the realized sequence still covers
   every original index (Def. 3.2 requires at least one realized step per
   original step for exact-with-repetition, and preserves multiplicities for
   subsequence realization).

   If the destination has announced, reading one of its (untracked, hence
   empty) in-channels is a no-op.  Before the destination's first
   announcement no message has ever been written, so every channel is empty
   and any single-channel read by a non-destination node is a no-op. *)
let noop_entry inst (before : State.t) ~count =
  let dest = Instance.dest inst in
  if not (Path.is_epsilon (State.announced before dest)) then
    Activation.single dest [ harmless_read inst dest ~count ]
  else
    let v =
      match List.find_opt (fun v -> v <> dest) (Instance.nodes inst) with
      | Some v -> v
      | None -> invalid_arg "Transform: single-node instance"
    in
    match Instance.neighbors inst v with
    | u :: _ -> Activation.single v [ Activation.read ~count (Channel.id ~src:u ~dst:v) ]
    | [] -> invalid_arg "Transform: isolated node"

let widen_multi_to_every inst entries =
  List.map
    (fun (entry : Activation.t) ->
      let v = the_single_active entry in
      let present c =
        List.exists
          (fun (r : Activation.read) -> Channel.equal_id r.Activation.chan c)
          entry.Activation.reads
      in
      let required = (View.spp inst).required v in
      let padding =
        List.filter_map
          (fun c ->
            if present c then None
            else Some (Activation.read ~count:(Activation.Finite 0) c))
          required
      in
      (* Reads of channels into the destination are no-ops and are not part
         of the E dimension's required set: drop them. *)
      let kept =
        List.filter
          (fun (r : Activation.read) ->
            List.exists (Channel.equal_id r.Activation.chan) required)
          entry.Activation.reads
      in
      { entry with Activation.reads = kept @ padding })
    entries

let rank_or_max inst v p =
  if Path.is_epsilon p then max_int
  else match Instance.rank inst v p with Some r -> r | None -> max_int

let split_multi_to_one inst ~msg entries =
  (* A message count that is legal for the target model's y dimension and
     consumes nothing when used on an empty channel. *)
  let noop_count =
    match msg with
    | Model.M_one -> Activation.Finite 1
    | Model.M_some | Model.M_forced | Model.M_all -> Activation.All
  in
  let sim = simulate inst entries in
  List.concat_map
    (fun ((before : State.t), (entry : Activation.t), (outcome : Step.outcome)) ->
      let v = the_single_active entry in
      match entry.Activation.reads with
      | [] ->
        if outcome.Step.announcements = [] then [ noop_entry inst before ~count:noop_count ]
        else [ Activation.single v [ harmless_read inst v ~count:noop_count ] ]
      | reads ->
        let p_new = State.pi outcome.Step.state v
        and p_old = State.pi before v in
        let chan_of p =
          match Path.next_hop p with
          | Some u -> Some (Channel.id ~src:u ~dst:v)
          | None -> None
        in
        let c_new = chan_of p_new and c_old = chan_of p_old in
        let is_chan co (r : Activation.read) =
          match co with
          | Some c -> Channel.equal_id r.Activation.chan c
          | None -> false
        in
        let ordered =
          match (c_new, c_old) with
          | Some cn, Some co when Channel.equal_id cn co ->
            (* Both the new and old routes come through the same channel:
               put it first if the new route is preferred, last otherwise
               (Thm. 3.5). *)
            let this, others = List.partition (is_chan c_new) reads in
            if rank_or_max inst v p_new <= rank_or_max inst v p_old then this @ others
            else others @ this
          | _ ->
            let firsts, rest = List.partition (is_chan c_new) reads in
            let lasts, middle = List.partition (is_chan c_old) rest in
            firsts @ middle @ lasts
        in
        List.map (fun r -> Activation.single v [ r ]) ordered)
    sim

(* Prop. 3.6's "flagged messages".  Serializing a k-message read into k
   single-message reads makes the target pass through intermediate route
   choices, and those are announced: the target's channels contain the
   source's messages interleaved with extra intermediate announcements.  A
   later source read of f messages must therefore be expanded to however
   many single reads it takes to consume messages up to and including the
   f-th {e source-corresponding} message of the target channel.  We mirror
   the target channels with a tag per message ([true] = corresponds to a
   source message): after emitting the block for a source step, the last
   message the block pushed onto a channel also pushed by the source step is
   the corresponding one; every other push is an extra. *)
let serialize_r1s_to_r1o inst entries =
  let sim = simulate inst entries in
  let target_state = ref (State.initial inst) in
  let tags : (Channel.id, bool list) Hashtbl.t = Hashtbl.create 17 in
  let get_tags c = Option.value ~default:[] (Hashtbl.find_opt tags c) in
  let emitted = ref [] in
  let emit entry =
    let outcome = Step.apply inst !target_state entry in
    List.iter
      (fun (c, n) ->
        let rec drop n l =
          if n = 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t
        in
        Hashtbl.replace tags c (drop n (get_tags c)))
      outcome.Step.processed;
    List.iter
      (fun (c, _) -> Hashtbl.replace tags c (get_tags c @ [ false ]))
      outcome.Step.pushed;
    target_state := outcome.Step.state;
    emitted := entry :: !emitted
  in
  let mark_last_source c =
    match List.rev (get_tags c) with
    | last :: rest ->
      assert (not last);
      Hashtbl.replace tags c (List.rev (true :: rest))
    | [] -> assert false
  in
  List.iter
    (fun ((before : State.t), (entry : Activation.t), (outcome : Step.outcome)) ->
      let v = the_single_active entry in
      let r = the_single_read entry in
      let c = r.Activation.chan in
      let available = Channel.length (State.channels before) c in
      let i = effective_count r ~available in
      let single_read () =
        Activation.single v [ Activation.read ~count:(Activation.Finite 1) c ]
      in
      (if i > 0 then begin
         (* Position (1-based) of the i-th source-tagged message in the
            target channel: the number of single reads to emit. *)
         let k =
           let rec scan pos srcs = function
             | [] -> invalid_arg "Transform: source message missing in target"
             | tag :: rest ->
               let srcs = if tag then srcs + 1 else srcs in
               if srcs = i then pos else scan (pos + 1) srcs rest
           in
           scan 1 0 (get_tags c)
         in
         for _ = 1 to k do
           emit (single_read ())
         done
       end
       else if outcome.Step.announcements = [] then
         emit (noop_entry inst !target_state ~count:(Activation.Finite 1))
       else if Channel.length (State.channels !target_state) c = 0 then
         (* Announcing step with nothing to read (the destination's first
            activation): a single read of the empty channel is a no-op that
            still lets the node announce. *)
         emit (single_read ())
       else emit (Activation.single v [ harmless_read inst v ~count:(Activation.Finite 1) ]));
      (* Retag: the source step's own pushes correspond to the last message
         this block pushed onto each of those channels. *)
      List.iter (fun (c, _) -> mark_last_source c) outcome.Step.pushed)
    sim;
  List.rev !emitted

let serialize_u1s_to_u1o inst entries =
  let sim = simulate inst entries in
  List.concat_map
    (fun ((before : State.t), (entry : Activation.t), (outcome : Step.outcome)) ->
      let v = the_single_active entry in
      let r = the_single_read entry in
      let c = r.Activation.chan in
      let available = Channel.length (State.channels before) c in
      let i = effective_count r ~available in
      if i > 0 then begin
        let kept =
          (* largest index in 1..i not dropped *)
          let rec scan best j =
            if j > i then best
            else scan (if Activation.IntSet.mem j r.Activation.drops then best else Some j) (j + 1)
          in
          scan None 1
        in
        List.init i (fun k ->
            let j = k + 1 in
            let drops = if kept = Some j then [] else [ 1 ] in
            Activation.single v
              [ Activation.read ~drops ~count:(Activation.Finite 1) c ])
      end
      else if outcome.Step.announcements = [] then
        [ noop_entry inst before ~count:(Activation.Finite 1) ]
      else if available = 0 then
        [ Activation.single v [ Activation.read ~count:(Activation.Finite 1) c ] ]
      else [ Activation.single v [ harmless_read inst v ~count:(Activation.Finite 1) ] ])
    sim

let coalesce_u1o_to_r1s inst entries =
  let sim = simulate inst entries in
  let pending = Hashtbl.create 17 in
  let get c = Option.value ~default:0 (Hashtbl.find_opt pending c) in
  List.map
    (fun ((before : State.t), (entry : Activation.t), (_ : Step.outcome)) ->
      let v = the_single_active entry in
      let r = the_single_read entry in
      let c = r.Activation.chan in
      let available = Channel.length (State.channels before) c in
      if available = 0 then
        Activation.single v [ Activation.read ~count:(Activation.Finite 0) c ]
      else if Activation.IntSet.mem 1 r.Activation.drops then begin
        Hashtbl.replace pending c (get c + 1);
        Activation.single v [ Activation.read ~count:(Activation.Finite 0) c ]
      end
      else begin
        let k = get c + 1 in
        Hashtbl.replace pending c 0;
        Activation.single v [ Activation.read ~count:(Activation.Finite k) c ]
      end)
    sim

let apply_edge edge inst entries =
  match edge.rule with
  | Embed -> entries
  | Widen_multi_to_every -> widen_multi_to_every inst entries
  | Split_multi_to_one -> split_multi_to_one inst ~msg:edge.target.Model.msg entries
  | Serialize_r1s_to_r1o -> serialize_r1s_to_r1o inst entries
  | Serialize_u1s_to_u1o -> serialize_u1s_to_u1o inst entries
  | Coalesce_u1o_to_r1s -> coalesce_u1o_to_r1s inst entries

type path = edge list

let path_level path =
  List.fold_left
    (fun acc e -> Relation.min_level acc (rule_level e.rule))
    Relation.Exact path

(* Widest-path search over the edge graph: maximize the minimum rule level
   along the chain, breaking ties by fewer edges. *)
let route ~source ~target =
  if Model.equal source target then Some []
  else begin
    let best : (Model.t, Relation.level * path) Hashtbl.t = Hashtbl.create 29 in
    Hashtbl.replace best source (Relation.Exact, []);
    let improved = ref true in
    while !improved do
      improved := false;
      List.iter
        (fun e ->
          match Hashtbl.find_opt best e.source with
          | None -> ()
          | Some (lvl, path) ->
            let lvl' = Relation.min_level lvl (rule_level e.rule) in
            let better =
              match Hashtbl.find_opt best e.target with
              | None -> true
              | Some (old, old_path) ->
                Relation.compare lvl' old > 0
                || (Relation.compare lvl' old = 0
                   && List.length path + 1 < List.length old_path)
            in
            if better then begin
              Hashtbl.replace best e.target (lvl', path @ [ e ]);
              improved := true
            end)
        edges
    done;
    Option.map snd (Hashtbl.find_opt best target)
  end

let apply_path path inst entries =
  List.fold_left (fun acc e -> apply_edge e inst acc) entries path

open Engine
open Spp

type labeled = {
  entry : Activation.t;
  reads : Channel.id list;
  drops : Channel.id list;
  cleans : Channel.id list;
}

(* Canonical read options for one channel holding [m] messages: a list of
   (read, has_drop, has_clean) triples.

   For reliable channels there is exactly one effect per effective count i:
   process i messages, keep the last.  For unreliable channels the effect of
   any drop set on i processed messages is determined by the largest kept
   index j (or none): the canonical representative drops exactly
   {j+1, ..., i}. *)
let read_options (model : Model.t) c ~m =
  let mk ?(drops = []) count =
    let has_drop = drops <> [] in
    let processed = match count with Activation.All -> m | Activation.Finite f -> min f m in
    let kept_any = processed > List.length drops in
    (Activation.read ~drops ~count c, has_drop, processed > 0 && kept_any)
  in
  let with_drop_variants count i =
    (* i = effective number of processed messages for this count *)
    if model.Model.rel = Model.Reliable || i = 0 then [ mk count ]
    else
      mk count
      :: List.init i (fun j ->
             (* keep messages 1..j, drop j+1..i (j = 0 drops everything) *)
             let drops = List.init (i - j) (fun k -> j + k + 1) in
             mk ~drops count)
  in
  match model.Model.msg with
  | Model.M_one -> with_drop_variants (Activation.Finite 1) (min 1 m)
  | Model.M_all -> with_drop_variants Activation.All m
  | Model.M_forced ->
    if m = 0 then [ mk (Activation.Finite 1) ]
    else
      List.concat_map
        (fun i -> with_drop_variants (Activation.Finite i) i)
        (List.init m (fun i -> i + 1))
  | Model.M_some ->
    mk (Activation.Finite 0)
    :: List.concat_map
         (fun i -> with_drop_variants (Activation.Finite i) i)
         (List.init m (fun i -> i + 1))

let label v (choices : (Activation.read * bool * bool) list) =
  (* Single right-to-left pass: this runs once per candidate edge of every
     explored state, so avoid traversing [choices] four times. *)
  let rs, reads, drops, cleans =
    List.fold_left
      (fun (rs, reads, drops, cleans) ((r : Activation.read), d, k) ->
        ( r :: rs,
          r.Activation.chan :: reads,
          (if d then r.Activation.chan :: drops else drops),
          if k then r.Activation.chan :: cleans else cleans ))
      ([], [], [], [])
      (List.rev choices)
  in
  { entry = Activation.single v rs; reads; drops; cleans }

(* Cartesian product of per-channel option lists. *)
let rec product = function
  | [] -> [ [] ]
  | opts :: rest ->
    let tails = product rest in
    List.concat_map (fun o -> List.map (fun t -> o :: t) tails) opts

(* One node's entries.  They depend on the node, its model and the
   lengths of its required channels only: nothing else of the state is
   read. *)
let node_entries v (model : Model.t) required length =
  let options_for c = read_options model c ~m:(length c) in
  if required = [] then
    (* The destination: activating it reads nothing.  Only one entry. *)
    [ label v [] ]
  else
    match model.Model.nbr with
    | Model.N_one ->
      List.concat_map (fun c -> List.map (fun o -> label v [ o ]) (options_for c)) required
    | Model.N_every -> List.map (label v) (product (List.map options_for required))
    | Model.N_multi ->
      (* Per channel: absent or one of its options.  The all-absent
         combination is kept: it is a legal no-op activation. *)
      let per_channel =
        List.map (fun c -> None :: List.map Option.some (options_for c)) required
      in
      List.map (fun combo -> label v (List.filter_map Fun.id combo)) (product per_channel)

(* The model-driven entry enumeration, parametric in where nodes, required
   channel sets and queue lengths come from: the SPP explorer instantiates
   it from an [Spp.Instance.t] and [Engine.State.t] (below); the generic
   explorer ([Gexplore.Make]) from a protocol's [in_channels] and its own
   state type.  The entry order is part of the exploration's observable
   behavior (state numbering, checkpoint compatibility), so this extraction
   preserves it exactly. *)
let successors_core ~nodes ~required ~length ~(model_of : int -> Model.t) =
  List.concat_map (fun v -> node_entries v (model_of v) (required v) length) nodes

(* What an entry does at the given lengths: its reads that process at
   least one message, each with its processed count and the processed
   messages it drops.  A read that processes nothing (an empty channel, or
   [Finite 0]) is left out: the step kernel skips it (Def. 2.3 does
   nothing for it), so entries of one node with equal effects step to the
   same successor, with the same [pushes] and [consumes]. *)
let effect_at length (l : labeled) =
  List.filter_map
    (fun (r : Activation.read) ->
      let m = length r.Activation.chan in
      let i = match r.Activation.count with Activation.All -> m | Activation.Finite f -> min f m in
      if i = 0 then None
      else
        Some
          ( r.Activation.chan,
            i,
            List.filter (fun j -> j <= i) (Activation.IntSet.elements r.Activation.drops) ))
    l.entry.Activation.reads

type group = { labels : labeled list; rep : int array }

(* [rep.(k)]: the index of the first label with label [k]'s effect. *)
let group length labels =
  let first = Hashtbl.create 16 in
  let rep =
    Array.of_list
      (List.mapi
         (fun k l ->
           let e = effect_at length l in
           match Hashtbl.find_opt first e with
           | Some j -> j
           | None ->
             Hashtbl.add first e k;
             k)
         labels)
  in
  { labels; rep }

let labels groups = List.concat_map (fun g -> g.labels) groups

(* The memoised enumeration.  Since a node's entries are a function of its
   in-channel lengths, each node keeps a map from the exact length vector
   (in [required] order) to its {!group}, and every state with that vector
   shares one list — and so one [labeled] value per edge label — and one
   [rep] array, computed once per key.

   The map sits in an [Atomic] and grows by compare-and-set, so explorer
   workers on several domains can share one memo: readers never lock, and
   a writer that loses a race retries against the new map.  Two workers
   may both compute a missing entry list; either result is the same
   function of the key, so whichever lands is correct.

   Different keys often give equal labels (under [M_all] reads an entry
   does not depend on how many messages it takes), so a new list is
   rebuilt from the labels the memo already handed out: every equal
   label is one value, which is what lets {!Fair.make} find a label's
   masks by its physical identity. *)
module Lengths = Map.Make (struct
  type t = int array

  let compare (a : int array) b =
    let n = Array.length a in
    let c = Int.compare n (Array.length b) in
    if c <> 0 then c
    else
      let rec go i =
        if i = n then 0
        else
          let c = Int.compare (Array.unsafe_get a i) (Array.unsafe_get b i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0
end)

type node_memo = {
  v : int;
  model : Model.t;
  required : Channel.id array;
  required_l : Channel.id list;
  table : group Lengths.t Atomic.t;
}

let memo ?metrics ~nodes ~required ~(model_of : int -> Model.t) () =
  let shared = Hashtbl.create 64 and shared_mu = Mutex.create () in
  let share l =
    match Hashtbl.find_opt shared l with
    | Some l -> l
    | None ->
      Hashtbl.add shared l l;
      l
  in
  let memos =
    List.map
      (fun v ->
        let required_l = required v in
        {
          v;
          model = model_of v;
          required = Array.of_list required_l;
          required_l;
          table = Atomic.make Lengths.empty;
        })
      nodes
  in
  let entries length m =
    let key = Array.map length m.required in
    let rec find () =
      let table = Atomic.get m.table in
      match Lengths.find key table with
      | g -> g
      | exception Not_found ->
        let l =
          Mutex.protect shared_mu (fun () ->
              List.map share (node_entries m.v m.model m.required_l length))
        in
        let g = group length l in
        if Atomic.compare_and_set m.table table (Lengths.add key g table) then begin
          (match metrics with Some t -> Metrics.add_enumerations t 1 | None -> ());
          g
        end
        else find ()
    in
    find ()
  in
  fun length -> List.map (entries length) memos

let groups_with ?metrics inst (model_of : Spp.Path.node -> Model.t) =
  let entries =
    memo ?metrics ~nodes:(Instance.nodes inst) ~required:(View.spp inst).required
      ~model_of ()
  in
  fun state -> entries (Engine.State.queue_length state)

let groups ?metrics inst (model : Model.t) = groups_with ?metrics inst (fun _ -> model)

let successors ?metrics inst model =
  let groups = groups ?metrics inst model in
  fun state -> labels (groups state)

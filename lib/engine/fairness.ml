type report = {
  unread_channels : Channel.id list;
  max_gap : (Channel.id * int) list;
}

let reads_of (entry : Activation.t) = entry.Activation.reads

let analyze inst entries =
  let chans = View.tracked (View.spp inst) in
  let last_read = Hashtbl.create 17 and gaps = Hashtbl.create 17 in
  List.iteri
    (fun i entry ->
      List.iter
        (fun (r : Activation.read) ->
          let c = r.Activation.chan in
          let prev = match Hashtbl.find_opt last_read c with Some p -> p | None -> -1 in
          let gap = i - prev in
          let old = match Hashtbl.find_opt gaps c with Some g -> g | None -> 0 in
          if gap > old then Hashtbl.replace gaps c gap;
          Hashtbl.replace last_read c i)
        (reads_of entry))
    entries;
  let n = List.length entries in
  {
    unread_channels = List.filter (fun c -> not (Hashtbl.mem last_read c)) chans;
    max_gap =
      List.map
        (fun c ->
          let g = match Hashtbl.find_opt gaps c with Some g -> g | None -> n in
          let tail =
            n - (match Hashtbl.find_opt last_read c with Some p -> p | None -> -1)
          in
          (c, max g tail))
        chans;
  }

type counts = { processed : (Channel.id * int) list; dropped : (Channel.id * int) list }

module CS = Set.Make (struct
  type t = Channel.id

  let compare = Channel.compare_id
end)

let replayed_cycle_is_fair ~tracked steps =
  let reads, drops, cleans =
    List.fold_left
      (fun (reads, drops, cleans) ((entry : Activation.t), o) ->
        let reads =
          List.fold_left (fun acc (r : Activation.read) -> CS.add r.Activation.chan acc) reads
            entry.Activation.reads
        in
        let dropped_of c = Option.value ~default:0 (List.assoc_opt c o.dropped) in
        let drops = List.fold_left (fun acc (c, _) -> CS.add c acc) drops o.dropped in
        let cleans =
          List.fold_left
            (fun acc (c, i) -> if i > dropped_of c then CS.add c acc else acc)
            cleans o.processed
        in
        (reads, drops, cleans))
      (CS.empty, CS.empty, CS.empty) steps
  in
  List.for_all (fun c -> CS.mem c reads) tracked && CS.subset drops cleans

(* From the entries alone, a read with drops drops one message and keeps
   none, and a dropless read of a positive count keeps one. *)
let cycle_is_fair inst entries =
  let one (r : Activation.read) = (r.Activation.chan, 1) in
  let counts (e : Activation.t) =
    let dropping, dropless =
      List.partition
        (fun (r : Activation.read) -> not (Activation.IntSet.is_empty r.Activation.drops))
        (reads_of e)
    in
    let clean = List.filter (fun (r : Activation.read) -> r.Activation.count <> Activation.Finite 0) dropless in
    { processed = List.map one (dropping @ clean); dropped = List.map one dropping }
  in
  replayed_cycle_is_fair ~tracked:(View.tracked (View.spp inst)) (List.map (fun e -> (e, counts e)) entries)

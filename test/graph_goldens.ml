(* Golden digests of explored graphs: every catalogue gadget under all 24
   models, unreduced and under partial-order reduction, explored
   sequentially at channel bound 3 with a 1,500-state cap.  Each line
   carries the graph's size and flags, an MD5 of its states (materialized
   paths, so arena numbering does not leak in) and of its rows in state
   order and row order, and the verdict with an MD5 of its witness.  The
   committed .expected file pins the explorer's numbering, row order and
   the fair-cycle kernel's witnesses, and whether each witness replays
   ({!Oscillation.verify_witness}); a change that alters any of them
   must be promoted deliberately (dune promote).  The symmetry quotient is
   left out: its orbit representatives depend on arena-id order, which is
   process-local. *)

open Engine
open Modelcheck

let config = { Explore.channel_bound = 3; max_states = 1500 }

let state_string inst st =
  Fmt.str "%a|%a" (State.pp inst) st
    Fmt.(list ~sep:comma (Spp.Instance.pp_path inst))
    (List.map (State.announced st) (Spp.Instance.nodes inst))

let md5 f =
  let b = Buffer.create 4096 in
  f b;
  Digest.to_hex (Digest.string (Buffer.contents b))

let data x = Marshal.to_string x [ Marshal.No_sharing ]

let graph_digest inst (g : Explore.graph) =
  md5 (fun b ->
      Array.iter (fun st -> Buffer.add_string b (state_string inst st)) g.Explore.states;
      Array.iteri
        (fun i row ->
          Buffer.add_string b (Printf.sprintf "#%d" i);
          List.iter
            (fun (e : Explore.edge) ->
              Buffer.add_string b (Printf.sprintf ">%d" e.Explore.dst);
              Buffer.add_string b (data e.Explore.label))
            row)
        g.Explore.adjacency)

let verdict_string inst m = function
  | Oscillation.Oscillates w ->
    Printf.sprintf "oscillates %d/%d %s replays=%b" (List.length w.Oscillation.prefix)
      (List.length w.Oscillation.cycle)
      (md5 (fun b -> Buffer.add_string b (data (w.Oscillation.prefix, w.Oscillation.cycle))))
      (Oscillation.verify_witness inst m w)
  | v -> Oscillation.verdict_name v

let () =
  List.iter
    (fun (name, inst) ->
      List.iter
        (fun m ->
          List.iter
            (fun reduction ->
              let g = Explore.explore ~config ~reduction ~domains:1 inst m in
              let edges = Array.fold_left (fun n r -> n + List.length r) 0 g.Explore.adjacency in
              Printf.printf "%s %s %s states=%d edges=%d pruned=%b truncated=%b graph=%s %s\n"
                name (Model.to_string m) (Reduce.to_string reduction)
                (Array.length g.Explore.states) edges g.Explore.pruned g.Explore.truncated
                (graph_digest inst g)
                (verdict_string inst m (Oscillation.analyze_graph inst g)))
            [ Reduce.No_reduction; Reduce.Por ])
        Model.all)
    (Spp.Gadgets.all_named ())

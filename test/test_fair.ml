(* The fair-cycle kernel (Modelcheck.Fair) against three independent
   references:

   - the previous whole-graph search, kept in [Fair_oracle]: equal
     verdicts on every catalogue gadget under all 24 models, on gossip,
     and on random abstract graphs;
   - a brute force over edge subsets on graphs of at most 8 states: a fair
     cycle exists iff some strongly connected edge set reads every
     tracked channel, cleans every channel it drops on, and visits two
     differently coloured states;
   - the static certificates the hunt's prefilter trusts: a strictly
     monotone algebra or an instance without a dispute wheel never
     oscillates.

   The per-label masks over the explorer's CSR graph are checked against
   the kernel they replaced, which kept masks per edge ([Fair_per_edge]):
   equal verdicts and equal witnesses on abstract graphs and on every
   gadget under all 24 models, plain and under POR, explored
   sequentially, with work stealing and through a checkpoint and resume.
   A memory guard pins the compact graph's size.

   Every witness is checked: SPP witnesses replay under the executor,
   abstract ones are checked edge by edge.  The work counters pin the
   kernel's cost on deep FIG6, so a return to a whole-graph pass per
   component fails deterministically. *)

open Spp
open Engine
open Modelcheck

let model s = Option.get (Model.of_string s)

(* ------------------------------------------------------------------ *)
(* SPP graphs: kernel (through Oscillation) vs oracle. *)

let pi_differs inst a b =
  List.exists
    (fun v -> not (Arena.equal (State.pi_id a v) (State.pi_id b v)))
    (Instance.nodes inst)

let oracle_verdict inst (g : Explore.graph) =
  let adjacency =
    Array.map
      (List.map (fun (e : Explore.edge) ->
           { Fair_oracle.dst = e.Explore.dst; label = e.Explore.label }))
      g.Explore.adjacency
  in
  let states = g.Explore.states in
  match
    Fair_oracle.find
      ~differs:(fun a b -> pi_differs inst states.(a) states.(b))
      ~stuck_ok:(fun _ -> false)
      ~tracked:(View.tracked (View.spp inst))
      adjacency
  with
  | Some _ -> "oscillates"
  | None ->
    if g.Explore.pruned then "unknown"
    else if g.Explore.truncated then "unknown"
    else "converges"

let small_config = { Explore.channel_bound = 3; max_states = 3000 }

let test_gadget_matrix () =
  List.iter
    (fun (name, inst) ->
      List.iter
        (fun m ->
          let tag = Printf.sprintf "%s/%s" name (Model.to_string m) in
          let g = Explore.explore ~config:small_config ~domains:1 inst m in
          let v = Oscillation.analyze_graph inst g in
          Alcotest.(check string)
            (tag ^ " verdict") (oracle_verdict inst g) (Oscillation.verdict_name v);
          match v with
          | Oscillation.Oscillates w ->
            Alcotest.(check bool)
              (tag ^ " witness replays") true
              (Oscillation.verify_witness inst m w)
          | _ -> ())
        Model.all)
    (Gadgets.all_named ())

(* ------------------------------------------------------------------ *)
(* Gexplore: gossip, with the converged-state restriction and the doomed
   clause, vs the oracle given the same restriction and clause. *)

module GG = Gexplore.Make (Protocols.Gossip)

let gossip_oracle inst (g : GG.graph) =
  let n = Array.length g.GG.states in
  let rows = (GG.Driver.view g).GG.Driver.adjacency in
  let converged = Array.map (GG.E.State.converged inst) g.GG.states in
  let can_converge = Array.copy converged in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i es ->
        if
          (not can_converge.(i))
          && List.exists (fun (e : GG.edge) -> can_converge.(e.GG.dst)) es
        then begin
          can_converge.(i) <- true;
          changed := true
        end)
      rows
  done;
  let adjacency =
    Array.init n (fun i ->
        List.map
          (fun (e : GG.edge) -> { Fair_oracle.dst = e.GG.dst; label = e.GG.label })
          rows.(i))
  in
  match
    Fair_oracle.find
      ~live:(fun i -> not converged.(i))
      ~differs:(fun a b -> GG.observable_differs inst g.GG.states.(a) g.GG.states.(b))
      ~stuck_ok:(fun i ->
        Protocols.Gossip.stuck_is_divergent
        && (not g.GG.pruned)
        && (not g.GG.truncated)
        && not can_converge.(i))
      ~tracked:(View.tracked (GG.E.view inst)) adjacency
  with
  | Some _ -> "diverges"
  | None -> if g.GG.pruned || g.GG.truncated then "unknown" else "converges"

let test_gossip_parity () =
  let config = { Explore.channel_bound = 2; max_states = 3000 } in
  List.iter
    (fun topo ->
      let inst = Protocols.Gossip.make topo in
      List.iter
        (fun m ->
          let tag = Printf.sprintf "gossip/%s/%s" topo.Protocols.Topo.name (Model.to_string m) in
          let g = GG.explore ~config inst m in
          let v = GG.analyze_graph inst g in
          Alcotest.(check string) (tag ^ " verdict") (gossip_oracle inst g) (GG.verdict_name v);
          match v with
          | GG.Oscillates w ->
            Alcotest.(check bool) (tag ^ " witness replays") true (GG.verify_witness inst m w)
          | _ -> ())
        Model.all)
    [ Protocols.Topo.ring 4; Protocols.Topo.star 4 ]

(* ------------------------------------------------------------------ *)
(* Abstract graphs.  Each edge carries its index as the activation's
   active node, so a witness maps back to the edges it walks. *)

type agraph = {
  n : int;
  colour : int array;
  tracked : int;  (** channels 0 .. tracked-1 are tracked *)
  edges : (int * int * int list * int list * int list) list;
      (** src, dst, reads, drops, cleans (drops and cleans within reads) *)
}

let chan c = Channel.id ~src:c ~dst:(c + 1000)

let gen_graph =
  let open QCheck.Gen in
  let* n = int_range 1 8 in
  let* k = int_range 1 3 in
  let* tracked = int_range 0 k in
  let* colour = array_repeat n (int_range 0 1) in
  let gen_edge =
    let* src = int_bound (n - 1) and* dst = int_bound (n - 1) in
    let* reads = list_size (int_range 0 k) (int_bound (k - 1)) in
    let reads = List.sort_uniq compare reads in
    let* drops = list_size (return (List.length reads)) bool in
    let* cleans = list_size (return (List.length reads)) bool in
    let pick flags = List.filteri (fun i _ -> List.nth flags i) reads in
    return (src, dst, reads, pick drops, pick cleans)
  in
  let* edges = list_size (int_range 0 11) gen_edge in
  return { n; colour; tracked; edges }

let print_graph g =
  let l xs = String.concat "," (List.map string_of_int xs) in
  Printf.sprintf "n=%d tracked=%d colours=[%s] edges=[%s]" g.n g.tracked
    (l (Array.to_list g.colour))
    (String.concat "; "
       (List.map
          (fun (s, d, r, dr, c) -> Printf.sprintf "%d->%d r{%s} d{%s} c{%s}" s d (l r) (l dr) (l c))
          g.edges))

let arb_graph = QCheck.make ~print:print_graph gen_graph

(* [pad] extra channels read by every edge, never dropped, so the verdict
   must not change.  Tracked, they are numbered before the real channels
   and push every real bit into a later mask word; untracked, they are
   numbered while the edges are counted and widen every mask. *)
let pads pad = List.init pad (fun i -> chan (100 + i))

let labels ?(pad = 0) g =
  let pads = pads pad in
  List.mapi
    (fun i (s, d, r, dr, c) ->
      ( s,
        d,
        {
          Enumerate.entry = Activation.single i [];
          reads = pads @ List.map chan r;
          drops = List.map chan dr;
          cleans = List.map chan c;
        } ))
    g.edges

let tracked_of ?(pad = 0) g = pads pad @ List.init g.tracked chan

let kernel ?pad ?(pad_tracked = true) ?live ~stuck_ok g =
  let ls = labels ?pad g in
  let tracked = if pad_tracked then tracked_of ?pad g else tracked_of g in
  let rows = Fair.Rows.create () in
  for i = 0 to g.n - 1 do
    List.iter (fun (s, d, l) -> if s = i then Fair.Rows.add rows d l) ls;
    Fair.Rows.close rows i
  done;
  let fair = Fair.make ~tracked (Fair.Rows.csr ~n:g.n [ rows ]) in
  Fair.find ?live fair
    { Fair.differs = (fun a b -> g.colour.(a) <> g.colour.(b)); stuck_ok }

let per_edge_kernel ?live ~stuck_ok g =
  let ls = labels g in
  let fair =
    Fair_per_edge.make ~n:g.n ~tracked:(tracked_of g) ~out:(fun i f ->
        List.iter (fun (s, d, l) -> if s = i then f d l) ls)
  in
  Fair_per_edge.find ?live fair
    { Fair_per_edge.differs = (fun a b -> g.colour.(a) <> g.colour.(b)); stuck_ok }

let oracle ?live ~stuck_ok g =
  let adjacency = Array.make g.n [] in
  List.iter
    (fun (s, d, l) -> adjacency.(s) <- adjacency.(s) @ [ { Fair_oracle.dst = d; label = l } ])
    (labels g);
  Fair_oracle.find ?live
    ~differs:(fun a b -> g.colour.(a) <> g.colour.(b))
    ~stuck_ok ~tracked:(tracked_of g) adjacency

let subset a b = List.for_all (fun x -> List.mem x b) a

(* Does the edge set (indices into [g.edges]) satisfy the four
   conditions? *)
let fair_set ~need_change g set =
  let es = List.map (List.nth g.edges) set in
  let nodes = List.sort_uniq compare (List.concat_map (fun (s, d, _, _, _) -> [ s; d ]) es) in
  let reach rev from =
    let seen = Hashtbl.create 8 in
    let rec go v =
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        List.iter
          (fun (s, d, _, _, _) ->
            let a, b = if rev then (d, s) else (s, d) in
            if a = v then go b)
          es
      end
    in
    go from;
    List.for_all (Hashtbl.mem seen) nodes
  in
  let union f = List.sort_uniq compare (List.concat_map f es) in
  es <> []
  && reach false (List.hd nodes)
  && reach true (List.hd nodes)
  && subset (List.init g.tracked Fun.id) (union (fun (_, _, r, _, _) -> r))
  && subset (union (fun (_, _, _, d, _) -> d)) (union (fun (_, _, _, _, c) -> c))
  && ((not need_change) || List.exists (fun v -> g.colour.(v) <> g.colour.(List.hd nodes)) nodes)

let brute_force g =
  let m = List.length g.edges in
  let rec any mask =
    mask < 1 lsl m
    && (fair_set ~need_change:true g (List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init m Fun.id))
       || any (mask + 1))
  in
  any 1

(* The witness walks a closed path from its start over the graph's edges
   and is itself a fair set (with a colour change when [need_change]). *)
let witness_ok ~need_change g (start, entries) =
  let ids = List.map (fun (a : Activation.t) -> List.hd a.Activation.active) entries in
  let rec closed at = function
    | [] -> at = start
    | i :: rest ->
      let s, d, _, _, _ = List.nth g.edges i in
      s = at && closed d rest
  in
  ids <> [] && closed start ids && fair_set ~need_change g (List.sort_uniq compare ids)

let prop_brute_force =
  QCheck.Test.make ~count:400 ~name:"kernel = brute force (<= 8 states)" arb_graph (fun g ->
      let found = kernel ~stuck_ok:(fun _ -> false) g in
      Option.is_some found = brute_force g
      && match found with None -> true | Some w -> witness_ok ~need_change:true g w)

(* Untracked channels can chain the drop repairs past any budget the
   tracked count gives: with nothing tracked, the change loop 0 -> 1 -> 0
   drops channel 0, its only cleaner (the self-loop on 0) drops channel 1,
   and only a second repair round reaches channel 1's cleaner. *)
let chained_drops =
  {
    n = 2;
    colour = [| 0; 1 |];
    tracked = 0;
    edges =
      [
        (0, 1, [ 0 ], [ 0 ], []);
        (1, 0, [], [], []);
        (0, 0, [ 0; 1 ], [ 1 ], [ 0 ]);
        (0, 0, [ 1 ], [], [ 1 ]);
      ];
  }

let test_chained_drops () =
  Alcotest.(check bool) "brute force accepts" true (brute_force chained_drops);
  List.iter
    (fun (name, found) ->
      match found with
      | None -> Alcotest.failf "%s finds no fair cycle" name
      | Some w ->
        Alcotest.(check bool) (name ^ " witness is fair") true
          (witness_ok ~need_change:true chained_drops w))
    [
      ("kernel", kernel ~stuck_ok:(fun _ -> false) chained_drops);
      ("oracle", oracle ~stuck_ok:(fun _ -> false) chained_drops);
    ]

let prop_wide_masks =
  QCheck.Test.make ~count:200 ~name:"more than 62 channels: same verdict" arb_graph (fun g ->
      let verdict ?pad ?pad_tracked () =
        Option.is_some (kernel ?pad ?pad_tracked ~stuck_ok:(fun _ -> false) g)
      in
      let narrow = verdict () in
      verdict ~pad:130 () = narrow && verdict ~pad:130 ~pad_tracked:false () = narrow)

let prop_oracle =
  QCheck.Test.make ~count:400 ~name:"kernel = oracle (live set, stuck clause)"
    QCheck.(pair arb_graph (pair (int_bound 255) (int_bound 255)))
    (fun (g, (live_bits, stuck_bits)) ->
      let live i = live_bits land (1 lsl i) = 0 || i = 0 in
      let stuck_ok i = stuck_bits land (1 lsl i) <> 0 in
      let found = kernel ~live ~stuck_ok g in
      Option.is_some found = Option.is_some (oracle ~live ~stuck_ok g)
      &&
      match found with
      | None -> true
      | Some ((_, entries) as w) ->
        let ids = List.map (fun (a : Activation.t) -> List.hd a.Activation.active) entries in
        List.for_all
          (fun i ->
            let s, d, _, _, _ = List.nth g.edges i in
            live s && live d)
          ids
        && witness_ok ~need_change:false g w)

let prop_per_edge =
  QCheck.Test.make ~count:400 ~name:"per-label masks = per-edge masks (same witness)"
    QCheck.(pair arb_graph (pair (int_bound 255) (int_bound 255)))
    (fun (g, (live_bits, stuck_bits)) ->
      let live i = live_bits land (1 lsl i) = 0 || i = 0 in
      let stuck_ok i = stuck_bits land (1 lsl i) <> 0 in
      kernel ~live ~stuck_ok g = per_edge_kernel ~live ~stuck_ok g)

(* ------------------------------------------------------------------ *)
(* The compact graph against its view and the per-edge kernel. *)

(* [Oscillation.analyze_compact] with [Fair_per_edge] in place of [Fair],
   fed the edge-list view. *)
let per_edge_verdict inst (g : Explore.graph) =
  let states = g.Explore.states in
  let fair =
    Fair_per_edge.make ~n:(Array.length states) ~tracked:(View.tracked (View.spp inst))
      ~out:(fun i f ->
        List.iter
          (fun (e : Explore.edge) -> f e.Explore.dst e.Explore.label)
          g.Explore.adjacency.(i))
  in
  let goal =
    {
      Fair_per_edge.differs = (fun a b -> pi_differs inst states.(a) states.(b));
      stuck_ok = (fun _ -> false);
    }
  in
  match Fair_per_edge.find fair goal with
  | Some (start, cycle) -> (
    match Fair_per_edge.prefix fair start with
    | Some prefix -> Oscillation.Oscillates { Oscillation.prefix; cycle }
    | None -> Oscillation.Unknown "cycle start unreachable (internal error)")
  | None ->
    if g.Explore.pruned then Oscillation.Unknown "channel bound pruned some writes"
    else if g.Explore.truncated then Oscillation.Unknown "state limit reached"
    else Oscillation.Converges

let csr_ok n (g : Fair.csr) =
  let m = Array.length g.Fair.dst in
  Array.length g.Fair.first = n + 1
  && g.Fair.first.(0) = 0
  && g.Fair.first.(n) = m
  && Array.length g.Fair.label = m
  && Array.for_all (fun d -> d >= 0 && d < n) g.Fair.dst
  && Array.for_all Fun.id (Array.init n (fun i -> g.Fair.first.(i) <= g.Fair.first.(i + 1)))

let same_view (a : Explore.graph) (b : Explore.graph) =
  a.Explore.pruned = b.Explore.pruned
  && a.Explore.truncated = b.Explore.truncated
  && Array.length a.Explore.states = Array.length b.Explore.states
  && Array.for_all2 State.equal a.Explore.states b.Explore.states
  && Array.for_all2
       (List.equal (fun (x : Explore.edge) (y : Explore.edge) ->
            x.Explore.dst = y.Explore.dst && x.Explore.label = y.Explore.label))
       a.Explore.adjacency b.Explore.adjacency

(* Each state's row as (label, target state), in row order, the states
   sorted: equal for two explorations of one space whatever their
   numbering. *)
let rows_by_state (g : Explore.graph) =
  List.sort
    (fun (a, _) (b, _) -> State.compare a b)
    (List.mapi
       (fun i row ->
         ( g.Explore.states.(i),
           List.map
             (fun (e : Explore.edge) -> (e.Explore.label, g.Explore.states.(e.Explore.dst)))
             row ))
       (Array.to_list g.Explore.adjacency))

let same_rows a b =
  List.equal
    (fun (s, row) (s', row') ->
      State.equal s s'
      && List.equal (fun (l, d) (l', d') -> l = l' && State.equal d d') row row')
    (rows_by_state a) (rows_by_state b)

(* The last checkpoint an exploration leaves behind, resumed. *)
let resumed ~config ~reduction ~every inst m =
  let path = Filename.temp_file "commrouting-compact" ".snap" in
  Sys.remove path;
  ignore
    (Explore.explore_compact ~config ~reduction ~checkpoint:{ Explore.path; every } inst m);
  if not (Sys.file_exists path) then None
  else begin
    let snap =
      match Snapshot.load ~path inst with
      | Ok s -> s
      | Error e -> Alcotest.failf "%s" (Snapshot.error_to_string e)
    in
    Sys.remove path;
    Some (Explore.explore_compact ~config ~reduction ~resume:snap inst m)
  end

let test_compact_parity () =
  let config = { Explore.channel_bound = 2; max_states = 500 } in
  List.iter
    (fun (name, inst) ->
      List.iter
        (fun m ->
          List.iter
            (fun reduction ->
              let tag =
                Printf.sprintf "%s/%s/%s" name (Model.to_string m) (Reduce.to_string reduction)
              in
              (* The kernel on the CSR graph = the per-edge kernel on its view. *)
              let kernel_ok what (c : Explore.compact) =
                let n = Array.length c.Explore.states in
                if not (csr_ok n c.Explore.csr) then
                  Alcotest.failf "%s %s: not a CSR graph" tag what;
                if n > config.Explore.max_states then Alcotest.failf "%s %s: %d states" tag what n;
                if Oscillation.analyze_compact inst c <> per_edge_verdict inst (Explore.view c) then
                  Alcotest.failf "%s %s: verdict or witness differs from the per-edge kernel" tag
                    what
              in
              let seq = Explore.explore_compact ~config ~reduction ~domains:1 inst m in
              kernel_ok "sequential" seq;
              let view = Explore.view seq in
              let back = Explore.of_view view in
              if
                back.Explore.csr.Fair.first <> seq.Explore.csr.Fair.first
                || back.Explore.csr.Fair.dst <> seq.Explore.csr.Fair.dst
                || not
                     (Array.for_all2 ( == ) back.Explore.csr.Fair.label seq.Explore.csr.Fair.label)
              then Alcotest.failf "%s: view does not convert back to the same CSR" tag;
              let stolen = Explore.explore_compact ~config ~reduction ~domains:3 ~spill:0 inst m in
              kernel_ok "stealing" stolen;
              if stolen.Explore.truncated <> seq.Explore.truncated then
                Alcotest.failf "%s stealing: truncated differs" tag;
              if (not seq.Explore.truncated) && not (same_rows view (Explore.view stolen)) then
                Alcotest.failf "%s stealing: rows differ" tag;
              let every = max 1 (Array.length seq.Explore.states / 2) in
              match resumed ~config ~reduction ~every inst m with
              | None -> ()
              | Some r ->
                kernel_ok "resumed" r;
                if not (same_view view (Explore.view r)) then
                  Alcotest.failf "%s resumed: graph differs" tag)
            [ Reduce.No_reduction; Reduce.Por ])
        Model.all)
    (Gadgets.all_named ())

(* The compact graph of deep FIG6/RMA as analysis holds it (the
   explorer's CSR and the kernel's additions, states excluded) stays
   within 5 words per edge; per-edge records or masks would exceed it. *)
let test_memory_guard () =
  let g = Explore.explore_compact ~domains:1 Gadgets.fig6 (model "RMA") in
  let fair = Fair.make ~tracked:(View.tracked (View.spp Gadgets.fig6)) g.Explore.csr in
  let edges = Array.length g.Explore.csr.Fair.dst in
  let words = Obj.reachable_words (Obj.repr (g.Explore.csr, fair)) in
  Alcotest.(check bool) "deep graph" true (edges > 300_000);
  if words > 5 * edges then
    Alcotest.failf "%d words for %d edges (%.2f per edge)" words edges
      (float_of_int words /. float_of_int edges)

(* ------------------------------------------------------------------ *)
(* Static certificates: what the prefilter skips never oscillates. *)

let test_certificates () =
  let config = { Explore.channel_bound = 2; max_states = 2000 } in
  let skipped =
    List.filter_map
      (fun (c : Hunt.Perturb.t) ->
        match Hunt.Precheck.run c with
        | Hunt.Precheck.Skip reason -> Some (c, reason)
        | Hunt.Precheck.Explore _ -> None)
      (Hunt.Perturb.generate ~seeds:2)
  in
  Alcotest.(check bool) "both certificates exercised" true
    (List.exists (fun (_, r) -> r = Hunt.Precheck.No_dispute_wheel) skipped
    && List.exists (fun (_, r) -> r <> Hunt.Precheck.No_dispute_wheel) skipped);
  List.iter
    (fun ((c : Hunt.Perturb.t), reason) ->
      let inst = Hunt.Perturb.instance c in
      List.iter
        (fun m ->
          match Oscillation.analyze ~config ~domains:1 inst m with
          | Oscillation.Oscillates _ ->
            Alcotest.failf "%s (%s) oscillates under %s" c.Hunt.Perturb.name
              (Hunt.Precheck.reason_string reason) (Model.to_string m)
          | _ -> ())
        Model.all)
    skipped

(* ------------------------------------------------------------------ *)
(* Work counters on deep FIG6/R1A: one split per removal round at most,
   each edge fed to splits at most twice. *)

let test_work_counters () =
  let metrics = Metrics.create () in
  let v = Oscillation.analyze ~domains:1 ~metrics Gadgets.fig6 (model "R1A") in
  Alcotest.(check string) "verdict" "converges" (Oscillation.verdict_name v);
  let states = Metrics.states_interned metrics and edges = Metrics.edges metrics in
  let splits = Metrics.fair_splits metrics and scanned = Metrics.fair_edges_scanned metrics in
  Alcotest.(check bool) "searched" true (splits >= 1 && scanned >= edges);
  if splits > states + 1 then Alcotest.failf "%d splits for %d states" splits states;
  if scanned > 2 * edges then Alcotest.failf "%d edges scanned for %d edges" scanned edges

let () =
  Alcotest.run "fair"
    [
      ( "oracle",
        [
          Alcotest.test_case "gadgets x 24 models" `Slow test_gadget_matrix;
          Alcotest.test_case "gossip x 24 models" `Quick test_gossip_parity;
          QCheck_alcotest.to_alcotest prop_oracle;
        ] );
      ( "compact",
        [
          QCheck_alcotest.to_alcotest prop_per_edge;
          Alcotest.test_case "gadgets x 24 models x 2 reductions" `Slow test_compact_parity;
          Alcotest.test_case "FIG6/RMA memory guard" `Quick test_memory_guard;
        ] );
      ( "brute-force",
        [
          QCheck_alcotest.to_alcotest prop_brute_force;
          Alcotest.test_case "chained drop repairs" `Quick test_chained_drops;
          QCheck_alcotest.to_alcotest prop_wide_masks;
        ] );
      ("certificates", [ Alcotest.test_case "prefilter skips never oscillate" `Quick test_certificates ]);
      ("counters", [ Alcotest.test_case "FIG6/R1A work bounds" `Quick test_work_counters ]);
    ]

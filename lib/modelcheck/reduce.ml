open Engine

type t = No_reduction | Por | Sym

let to_string = function No_reduction -> "none" | Por -> "por" | Sym -> "sym"

let of_string = function
  | "none" -> Some No_reduction
  | "por" -> Some Por
  | "sym" -> Some Sym
  | _ -> None

let pp ppf t = Fmt.string ppf (to_string t)

(* ------------------------------------------------------------------ *)
(* Partial-order reduction: invisible-drain ample sets.

   A node v is an invisible drain at state s when every activation of v
   enabled at s (i) pushes nothing, (ii) leaves π_v and v's last
   announcement unchanged, and some activation (iii) consumes at least one
   message.  Such activations only shrink v's in-channels and rewrite ρ on
   them — state components no other node's activation reads — so each one
   commutes with every other node's activations (FIFO prefix-read vs.
   append on disjoint channels), and expanding v alone defers, never
   loses, the rest (DESIGN.md, "State-space reduction" — including why the
   ample set must be ALL of v's activations, and why (iii) plus the strict
   message-count decrease discharges the cycle proviso structurally). *)

let ample _inst st steps =
  let drains v (n : Step.next) =
    (not n.Step.pushes)
    && Spp.Arena.equal (State.pi_id n.Step.after v) (State.pi_id st v)
    && Spp.Arena.equal (State.announced_id n.Step.after v) (State.announced_id st v)
  in
  (* [Enumerate.successors] emits each node's entries consecutively, so
     one linear scan recovers the groups. *)
  let rec groups acc cur key = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | ((l, _) as pair) :: rest ->
      let k = l.Enumerate.entry.Activation.active in
      if k = key || cur = [] then groups acc (pair :: cur) k rest
      else groups (List.rev cur :: acc) [ pair ] k rest
  in
  let total = List.length steps in
  let eligible group =
    match group with
    | ((l, _) :: _ : (Enumerate.labeled * Step.next) list) -> (
      match l.Enumerate.entry.Activation.active with
      | [ v ] ->
        List.length group < total
        && List.for_all (fun (_, n) -> drains v n) group
        && List.exists (fun (_, (n : Step.next)) -> n.Step.consumes) group
      | _ -> false)
    | [] -> false
  in
  match List.find_opt eligible (groups [] [] [] steps) with
  | Some group -> (group, true)
  | None -> (steps, false)

(* ------------------------------------------------------------------ *)
(* Symmetry quotient. *)

type canonicalizer = State.t -> State.t

let relabel inst sigma st =
  let module I = Spp.Instance in
  let module A = Spp.Arena in
  let rid p =
    if A.is_epsilon p then p else A.of_nodes (List.map (fun v -> sigma.(v)) (A.to_nodes p))
  in
  let e = State.Edit.create () in
  State.Edit.load e (State.initial inst);
  (* Every node is written explicitly (σ is a permutation), so nothing
     stale survives from the initial state. *)
  List.iter
    (fun v ->
      State.Edit.set_pi e sigma.(v) (rid (State.pi_id st v));
      State.Edit.set_announced e sigma.(v) (rid (State.announced_id st v)))
    (I.nodes inst);
  State.fold_rho_id
    (fun (c : Channel.id) p () ->
      State.Edit.set_rho e
        (Channel.id ~src:sigma.(c.Channel.src) ~dst:sigma.(c.Channel.dst))
        (rid p))
    st ();
  let s = State.Edit.seal e in
  let chans =
    List.fold_left
      (fun m ((c : Channel.id), msgs) ->
        let c' = Channel.id ~src:sigma.(c.Channel.src) ~dst:sigma.(c.Channel.dst) in
        List.fold_left (fun m p -> Channel.push m c' (rid p)) m msgs)
      Channel.empty
      (Channel.bindings (State.channels st))
  in
  State.with_channels s chans

let canonicalizer inst =
  match Spp.Instance.automorphisms inst with
  | [] -> Fun.id
  | autos ->
    fun st ->
      List.fold_left
        (fun best sg ->
          let st' = relabel inst sg st in
          if State.compare st' best < 0 then st' else best)
        st autos

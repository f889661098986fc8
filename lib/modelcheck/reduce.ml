open Engine

type t = No_reduction | Por

let to_string = function No_reduction -> "none" | Por -> "por"

let of_string = function "none" -> Some No_reduction | "por" -> Some Por | _ -> None

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

let ample st groups =
  let drains v (n : Step.next) =
    (not n.Step.pushes)
    && Spp.Arena.equal (State.pi_id n.Step.after v) (State.pi_id st v)
    && Spp.Arena.equal (State.announced_id n.Step.after v) (State.announced_id st v)
  in
  let total = List.fold_left (fun acc g -> acc + List.length g) 0 groups in
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
  match List.find_opt eligible groups with
  | Some group -> (group, true)
  | None -> (List.concat groups, false)

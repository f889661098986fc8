open Spp

type export = src:Path.node -> dst:Path.node -> Path.t -> bool

let export_all ~src:_ ~dst:_ _ = true

type outcome = {
  state : State.t;
  processed : (Channel.id * int) list;
  dropped : (Channel.id * int) list;
  announcements : (Path.node * Path.t) list;
  pushed : (Channel.id * Path.t) list;
}

type 'state successor = { after : 'state; pushes : bool; consumes : bool }
type next = State.t successor

(* What [src] actually offers to [dst] under the export policy: the path
   itself if exportable, otherwise a withdrawal.  Works on arena ids; the
   policy callback sees the materialized path (O(1)). *)
let effective export ~src ~dst (p : Arena.id) =
  if Arena.is_epsilon p then Arena.epsilon
  else if export ~src ~dst (Arena.path p) then p
  else Arena.epsilon

let relevant inst v (r : Arena.id) =
  (not (Arena.is_epsilon r)) && Option.is_some (Instance.permitted_extension inst v r)

(* What {!apply} records beside the state; the explorers' calls pass none,
   so their steps build no lists. *)
type recorder = {
  on_read : Channel.id -> int -> int -> unit;  (** channel, processed, dropped *)
  on_announce : Path.node -> Arena.id -> unit;
  on_push : Channel.id -> Arena.id -> unit;  (** the unprojected message *)
}

(* One edit per domain: the kernel loads the parent into it, applies the
   step in place and hands the edit to its continuation, which seals it
   or only looks it up.  The kernel takes the edit out of the slot until
   the continuation returns, so a step re-entered from an export policy or
   from the continuation works on a fresh one, and an exception costs only
   the slot's contents. *)
let scratch = Domain.DLS.new_key (fun () -> Some (State.Edit.create ()))

(* The step of Def. 2.3, once.  Phase 1 processes the read channels; the
   route choices (phase 2) and announcements (phase 3) are fused per
   active node, which is exact because a choice reads only ρ and neither
   later phase writes ρ.

   [~project] and [~collapse] apply the receiver-relevance projection and
   the last-message collapse to the messages this step writes.  That is
   the whole-state projection and collapse of the successor whenever the
   parent is already projected and collapsed: every ρ the step assigns is
   a message of a projected channel, and under a reliable [M_all] model a
   push replaces the queue — the read of that channel, if any, emptied it,
   and otherwise it held at most one message — because each active node
   pushes at most once per out-channel (DESIGN.md §3g). *)
let kernel recorder ~project ~collapse export inst st (entry : Activation.t) k =
  let module E = State.Edit in
  let held = Domain.DLS.get scratch in
  let e =
    match held with
    | Some e ->
      Domain.DLS.set scratch None;
      e
    | None -> E.create ()
  in
  E.load e st;
  let consumes = ref false and pushes = ref false in
  List.iter
    (fun (r : Activation.read) ->
      let c = r.chan in
      let m = E.length e c in
      let i = match r.count with Activation.All -> m | Activation.Finite f -> min f m in
      if i > 0 then begin
        (* The processed messages are 1..i (1-based, oldest first); ρ
           becomes the newest undropped one, and stays as it was when all
           of them are dropped. *)
        let kept = ref Arena.epsilon and n_dropped = ref 0 in
        for j = 1 to i do
          if Activation.IntSet.mem j r.drops then incr n_dropped
          else kept := E.message e c (j - 1)
        done;
        consumes := true;
        (match recorder with Some rc -> rc.on_read c i !n_dropped | None -> ());
        E.consume e c ~set_rho:(!n_dropped < i) !kept i
      end)
    entry.Activation.reads;
  let dest = Instance.dest inst in
  List.iter
    (fun v ->
      let p = E.best_choice_id inst e v in
      E.set_pi e v p;
      let old = E.announced_id e v in
      if not (Arena.equal p old) then begin
        (match recorder with Some rc -> rc.on_announce v p | None -> ());
        List.iter
          (fun u ->
            (* channels into the destination are not tracked *)
            if u <> dest then begin
              let eff_new = effective export ~src:v ~dst:u p in
              let eff_old = effective export ~src:v ~dst:u old in
              if not (Arena.equal eff_new eff_old) then begin
                let c = Channel.id ~src:v ~dst:u in
                pushes := true;
                (match recorder with Some rc -> rc.on_push c eff_new | None -> ());
                let msg =
                  if project && not (relevant inst u eff_new) then Arena.epsilon
                  else eff_new
                in
                if collapse then E.replace e c msg else E.push e c msg
              end
            end)
          (Instance.neighbors inst v);
        E.set_announced e v p
      end)
    entry.Activation.active;
  let r = k { after = e; pushes = !pushes; consumes = !consumes } in
  Domain.DLS.set scratch (match held with Some _ -> held | None -> Some e);
  r

let with_next ~project ~collapse inst st entry k =
  kernel None ~project ~collapse export_all inst st entry k

let sealed n = { n with after = State.Edit.seal n.after }

let next ~project ~collapse inst st entry =
  kernel None ~project ~collapse export_all inst st entry sealed

let apply ?(check = true) ?(export = export_all) inst state (entry : Activation.t) =
  if check then Activation.require_well_formed ~who:"Step.apply" (View.spp inst) entry;
  let processed = ref [] and dropped = ref [] in
  let announcements = ref [] and pushed = ref [] in
  let recorder =
    {
      on_read =
        (fun c i n_dropped ->
          processed := (c, i) :: !processed;
          if n_dropped > 0 then dropped := (c, n_dropped) :: !dropped);
      on_announce = (fun v p -> announcements := (v, Arena.path p) :: !announcements);
      on_push = (fun c msg -> pushed := (c, Arena.path msg) :: !pushed);
    }
  in
  let n = kernel (Some recorder) ~project:false ~collapse:false export inst state entry sealed in
  {
    state = n.after;
    processed = List.rev !processed;
    dropped = List.rev !dropped;
    announcements = List.rev !announcements;
    pushed = List.rev !pushed;
  }

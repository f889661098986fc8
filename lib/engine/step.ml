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

(* What [src] actually offers to [dst] under the export policy: the path
   itself if exportable, otherwise a withdrawal.  Works on arena ids; the
   policy callback sees the materialized path (O(1)). *)
let effective export ~src ~dst (p : Arena.id) =
  if Arena.is_epsilon p then Arena.epsilon
  else if export ~src ~dst (Arena.path p) then p
  else Arena.epsilon

let apply ?(check = true) ?(export = export_all) inst state (entry : Activation.t) =
  if check then
    (match Activation.well_formed inst entry with
    | [] -> ()
    | e :: _ -> invalid_arg (Fmt.str "Step.apply: %a" (Activation.pp_error inst) e));
  (* Phase 1: process channels. *)
  let processed = ref [] and dropped = ref [] in
  let state =
    List.fold_left
      (fun st (r : Activation.read) ->
        let c = r.chan in
        let contents = Channel.get (State.channels st) c in
        let m = List.length contents in
        let i =
          match r.count with Activation.All -> m | Activation.Finite f -> min f m
        in
        if i = 0 then st
        else begin
          (* One scan over the processed messages 1..i (1-based, [contents]
             is oldest-first) finds the largest undropped index's message
             and counts the dropped ones; [i <= m], so the list never runs
             out first. *)
          let rec scan kept n_dropped j = function
            | msg :: rest when j <= i ->
              if Activation.IntSet.mem j r.drops then scan kept (n_dropped + 1) (j + 1) rest
              else scan msg n_dropped (j + 1) rest
            | _ -> (kept, n_dropped)
          in
          let kept, n_dropped = scan Arena.epsilon 0 1 contents in
          processed := (c, i) :: !processed;
          if n_dropped > 0 then dropped := (c, n_dropped) :: !dropped;
          let st =
            if n_dropped = i then st (* all processed messages dropped: rho unchanged *)
            else State.with_rho_id st c kept
          in
          State.drop_first_channel st c i
        end)
      state entry.Activation.reads
  in
  (* Phase 2: route choices. *)
  let choices =
    List.map (fun v -> (v, State.best_choice_id inst state v)) entry.active
  in
  let state =
    List.fold_left (fun st (v, p) -> State.with_pi_id st v p) state choices
  in
  (* Phase 3: announcements. *)
  let announcements = ref [] in
  let pushed = ref [] in
  let state =
    List.fold_left
      (fun st (v, p) ->
        let old = State.announced_id st v in
        if Arena.equal p old then st
        else begin
          announcements := (v, Arena.path p) :: !announcements;
          let st =
            List.fold_left
              (fun st u ->
                if u = Instance.dest inst then st
                  (* channels into the destination are not tracked *)
                else
                  let eff_new = effective export ~src:v ~dst:u p in
                  let eff_old = effective export ~src:v ~dst:u old in
                  if Arena.equal eff_new eff_old then st
                  else begin
                    let c = Channel.id ~src:v ~dst:u in
                    pushed := (c, Arena.path eff_new) :: !pushed;
                    State.push_channel st c eff_new
                  end)
              st (Instance.neighbors inst v)
          in
          State.with_announced_id st v p
        end)
      state choices
  in
  {
    state;
    processed = List.rev !processed;
    dropped = List.rev !dropped;
    announcements = List.rev !announcements;
    pushed = List.rev !pushed;
  }

open Spp

type t = Spp.Path.node -> Model.t

let uniform m _ = m

let of_list ~default assoc v =
  match List.assoc_opt v assoc with Some m -> m | None -> default

let model_of t v = t v

let validates inst t (entry : Activation.t) =
  match entry.Activation.active with
  | [ v ] -> Model.validates inst (t v) entry
  | _ -> false

let round_robin inst t =
  let cycle =
    List.concat_map
      (fun v ->
        let m = t v in
        let count =
          match m.Model.msg with
          | Model.M_one -> Activation.Finite 1
          | Model.M_some | Model.M_forced | Model.M_all -> Activation.All
        in
        let chans = Model.required_channels inst v in
        match m.Model.nbr with
        | Model.N_one -> (
          let chans =
            if chans = [] then
              List.map (fun u -> Channel.id ~src:u ~dst:v) (Instance.neighbors inst v)
            else chans
          in
          match chans with
          | [] -> [ Activation.single v [] ]
          | chans ->
            List.map (fun c -> Activation.single v [ Activation.read ~count c ]) chans)
        | Model.N_multi | Model.N_every ->
          [ Activation.single v (List.map (fun c -> Activation.read ~count c) chans) ])
      (Instance.nodes inst)
  in
  let arr = Array.of_list cycle in
  {
    Scheduler.entries = Seq.unfold (fun i -> Some (arr.(i mod Array.length arr), i + 1)) 0;
    period = Some (Array.length arr);
    description = "round-robin/heterogeneous";
  }

let describe inst t =
  String.concat ", "
    (List.map
       (fun v -> Printf.sprintf "%s:%s" (Instance.name inst v) (Model.to_string (t v)))
       (Instance.nodes inst))

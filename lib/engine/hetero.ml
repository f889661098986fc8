open Spp

type t = Spp.Path.node -> Model.t

let uniform m _ = m

let of_list ~default assoc v =
  match List.assoc_opt v assoc with Some m -> m | None -> default

let model_of t v = t v

let describe inst t =
  String.concat ", "
    (List.map
       (fun v -> Printf.sprintf "%s:%s" (Instance.name inst v) (Model.to_string (t v)))
       (Instance.nodes inst))

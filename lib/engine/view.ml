type t = {
  nodes : Spp.Path.node list;
  readable : Spp.Path.node -> Channel.id list;
  required : Spp.Path.node -> Channel.id list;
  node_name : Spp.Path.node -> string;
}

let spp inst =
  let readable v =
    List.map (fun u -> Channel.id ~src:u ~dst:v) (Spp.Instance.neighbors inst v)
  in
  {
    nodes = Spp.Instance.nodes inst;
    readable;
    required = (fun v -> if v = Spp.Instance.dest inst then [] else readable v);
    node_name = Spp.Instance.name inst;
  }

let tracked t = List.sort_uniq Channel.compare_id (List.concat_map t.required t.nodes)

let pp_channel t ppf (c : Channel.id) =
  Fmt.pf ppf "(%s,%s)" (t.node_name c.src) (t.node_name c.dst)

open Engine
module Json = Metrics.Json

let schema = "commrouting/conformance/v1"

type expect = Expect_holds | Expect_violated of Trial.violation

type case =
  | Positive of Trial.positive * expect
  | Negative_refutation of {
      inst_name : string;
      inst : Spp.Instance.t;
      non_realizer : Model.t;
      target_model : Model.t;
      level : Realization.Relation.level;
      termination : Modelcheck.Refute.termination;
      witness : Activation.t list;
      channel_bound : int;
      max_states : int;
    }

type t = { name : string; case : case }

let positive ~name ~expect p = { name; case = Positive (p, expect) }

(* ------------------------------------------------------------------ *)
(* Serialization.  Node references are by name, not id, so corpus files
   survive any future renumbering of node ids. *)

let ( let* ) = Result.bind

let rec map_m f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_m f rest in
    Ok (y :: ys)

(* Indexed variant threading an element context ("entries[3]: ...") through
   errors, so a bad artifact is identifiable from the message alone. *)
let mapi_m ctx f l =
  let rec go i = function
    | [] -> Ok []
    | x :: rest ->
      let* y = Result.map_error (fun e -> Fmt.str "%s[%d]: %s" ctx i e) (f x) in
      let* ys = go (i + 1) rest in
      Ok (y :: ys)
  in
  go 0 l

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Fmt.str "missing field %S" name)

let str_field name j =
  match Json.member name j with
  | Some (Json.Str s) -> Ok s
  | _ -> Error (Fmt.str "field %S: expected a string" name)

let int_field name j =
  match Json.member name j with
  | Some (Json.Num f) -> Ok (int_of_float f)
  | _ -> Error (Fmt.str "field %S: expected a number" name)

let model_field name j =
  let* s = str_field name j in
  match Model.of_string s with
  | Some m -> Ok m
  | None -> Error (Fmt.str "field %S: unknown model %S" name s)

let list_field name j =
  match Json.member name j with
  | Some (Json.List l) -> Ok l
  | _ -> Error (Fmt.str "field %S: expected a list" name)

let as_str = function
  | Json.Str s -> Ok s
  | _ -> Error "expected a string"

let as_int = function
  | Json.Num f -> Ok (int_of_float f)
  | _ -> Error "expected a number"

let node_name inst v = Spp.Instance.name inst v
let names_json inst l = Json.List (List.map (fun v -> Json.Str (node_name inst v)) l)

let instance_to_json inst =
  let path_json v p =
    Json.Obj
      [
        ("path", names_json inst (Spp.Path.to_nodes p));
        ("rank", Json.Num (float_of_int (Option.get (Spp.Instance.rank inst v p))));
      ]
  in
  Json.Obj
    [
      ( "names",
        Json.List
          (Array.to_list (Array.map (fun s -> Json.Str s) (Spp.Instance.names inst)))
      );
      ("dest", Json.Str (node_name inst (Spp.Instance.dest inst)));
      ( "edges",
        Json.List
          (List.map
             (fun (a, b) ->
               Json.List [ Json.Str (node_name inst a); Json.Str (node_name inst b) ])
             (Spp.Instance.edges inst)) );
      ( "ranked",
        Json.List
          (List.filter_map
             (fun v ->
               if v = Spp.Instance.dest inst then None
               else
                 Some
                   (Json.Obj
                      [
                        ("node", Json.Str (node_name inst v));
                        ( "paths",
                          Json.List
                            (List.map (path_json v) (Spp.Instance.permitted inst v))
                        );
                      ]))
             (Spp.Instance.nodes inst)) );
    ]

let instance_of_json j =
  let* names_j = list_field "names" j in
  let* name_list = map_m as_str names_j in
  let names = Array.of_list name_list in
  let node name =
    let rec go i =
      if i >= Array.length names then Error (Fmt.str "unknown node %S" name)
      else if String.equal names.(i) name then Ok i
      else go (i + 1)
    in
    go 0
  in
  let* dest_name = str_field "dest" j in
  let* dest = node dest_name in
  let* edges_j = list_field "edges" j in
  let* edges =
    mapi_m "edges"
      (function
        | Json.List [ a; b ] ->
          let* a = as_str a in
          let* b = as_str b in
          let* a = node a in
          let* b = node b in
          Ok (a, b)
        | _ -> Error "expected a two-element list")
      edges_j
  in
  let* ranked_j = list_field "ranked" j in
  let* ranked =
    mapi_m "ranked"
      (fun rj ->
        let* v_name = str_field "node" rj in
        let* v = node v_name in
        let* paths_j = list_field "paths" rj in
        let* paths =
          mapi_m "paths"
            (fun pj ->
              let* nodes_j = list_field "path" pj in
              let* nodes = map_m as_str nodes_j in
              let* nodes = map_m node nodes in
              let* rank = int_field "rank" pj in
              Ok (Spp.Path.of_nodes nodes, rank))
            paths_j
        in
        Ok (v, paths))
      ranked_j
  in
  match Spp.Instance.of_ranked ~names ~dest ~edges ~ranked with
  | inst -> Ok inst
  | exception Invalid_argument msg -> Error ("invalid instance: " ^ msg)

let entries_to_json inst entries =
  Json.List
    (List.map
       (fun (e : Activation.t) ->
         Json.Obj
           [
             ("active", names_json inst e.Activation.active);
             ( "reads",
               Json.List
                 (List.map
                    (fun (r : Activation.read) ->
                      Json.Obj
                        [
                          ("src", Json.Str (node_name inst r.Activation.chan.Channel.src));
                          ("dst", Json.Str (node_name inst r.Activation.chan.Channel.dst));
                          ( "count",
                            Json.Num
                              (match r.Activation.count with
                              | Activation.All -> -1.
                              | Activation.Finite n -> float_of_int n) );
                          ( "drops",
                            Json.List
                              (List.map
                                 (fun i -> Json.Num (float_of_int i))
                                 (Activation.IntSet.elements r.Activation.drops)) );
                        ])
                    e.Activation.reads) );
           ])
       entries)

let entries_of_json ?(ctx = "entries") inst j =
  let node name =
    match Spp.Instance.find_node inst name with
    | v -> Ok v
    | exception Not_found -> Error (Fmt.str "unknown node %S" name)
  in
  let* entries_j =
    match j with Json.List l -> Ok l | _ -> Error (ctx ^ ": expected a list")
  in
  mapi_m ctx
    (fun ej ->
      let* active_j = list_field "active" ej in
      let* active = map_m as_str active_j in
      let* active = map_m node active in
      let* reads_j = list_field "reads" ej in
      let* reads =
        map_m
          (fun rj ->
            let* src = str_field "src" rj in
            let* dst = str_field "dst" rj in
            let* src = node src in
            let* dst = node dst in
            let* count = int_field "count" rj in
            let* drops_j = list_field "drops" rj in
            let* drops = map_m as_int drops_j in
            let count =
              if count < 0 then Activation.All else Activation.Finite count
            in
            Ok (Activation.read ~drops ~count (Channel.id ~src ~dst)))
          reads_j
      in
      Ok (Activation.entry ~active ~reads))
    entries_j

let level_to_json l = Json.Num (float_of_int (Realization.Relation.to_int l))

let level_of_json name j =
  let* i = int_field name j in
  match Realization.Relation.of_int i with
  | Some l -> Ok l
  | None -> Error (Fmt.str "field %S: no such level %d" name i)

let termination_to_string = function
  | Modelcheck.Refute.Prefix -> "prefix"
  | Modelcheck.Refute.Forever -> "forever"

let termination_of_string = function
  | "prefix" -> Ok Modelcheck.Refute.Prefix
  | "forever" -> Ok Modelcheck.Refute.Forever
  | s -> Error (Fmt.str "unknown termination %S" s)

let expect_to_string = function
  | Expect_holds -> "holds"
  | Expect_violated v -> "violated:" ^ Trial.violation_name v

let expect_of_string s =
  if String.equal s "holds" then Ok Expect_holds
  else
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "violated" -> (
      let tag = String.sub s (i + 1) (String.length s - i - 1) in
      match Trial.violation_of_name tag with
      | Some v -> Ok (Expect_violated v)
      | None -> Error (Fmt.str "unknown violation tag %S" tag))
    | _ -> Error (Fmt.str "unknown expectation %S" s)

let to_json t =
  let common = [ ("schema", Json.Str schema); ("name", Json.Str t.name) ] in
  match t.case with
  | Positive (p, expect) ->
    Json.Obj
      (common
      @ [
          ("kind", Json.Str "positive");
          ( "fact",
            Json.Obj
              [
                ("realizer", Json.Str (Model.to_string p.Trial.realizer));
                ("realized", Json.Str (Model.to_string p.Trial.realized));
                ("level", level_to_json p.Trial.level);
                ("source", Json.Str p.Trial.source);
              ] );
          ("instance_name", Json.Str p.Trial.inst_name);
          ("instance", instance_to_json p.Trial.inst);
          ("entries", entries_to_json p.Trial.inst p.Trial.entries);
          ("expect", Json.Str (expect_to_string expect));
        ])
  | Negative_refutation r ->
    Json.Obj
      (common
      @ [
          ("kind", Json.Str "negative_refutation");
          ("non_realizer", Json.Str (Model.to_string r.non_realizer));
          ("target_model", Json.Str (Model.to_string r.target_model));
          ("level", level_to_json r.level);
          ("termination", Json.Str (termination_to_string r.termination));
          ("instance_name", Json.Str r.inst_name);
          ("instance", instance_to_json r.inst);
          ("witness", entries_to_json r.inst r.witness);
          ("channel_bound", Json.Num (float_of_int r.channel_bound));
          ("max_states", Json.Num (float_of_int r.max_states));
        ])

let of_json j =
  let* s = str_field "schema" j in
  if not (String.equal s schema) then Error (Fmt.str "unsupported schema %S" s)
  else
    let* name = str_field "name" j in
    let* kind = str_field "kind" j in
    match kind with
    | "positive" ->
      let* fact = field "fact" j in
      let* realizer = model_field "realizer" fact in
      let* realized = model_field "realized" fact in
      let* level = level_of_json "level" fact in
      let* source = str_field "source" fact in
      let* inst_name = str_field "instance_name" j in
      let* inst_j = field "instance" j in
      let* inst = instance_of_json inst_j in
      let* entries_j = field "entries" j in
      let* entries = entries_of_json inst entries_j in
      let* expect = str_field "expect" j in
      let* expect = expect_of_string expect in
      Ok
        {
          name;
          case =
            Positive
              ( {
                  Trial.realizer;
                  realized;
                  level;
                  source;
                  inst_name;
                  inst;
                  entries;
                },
                expect );
        }
    | "negative_refutation" ->
      let* non_realizer = model_field "non_realizer" j in
      let* target_model = model_field "target_model" j in
      let* level = level_of_json "level" j in
      let* termination = str_field "termination" j in
      let* termination = termination_of_string termination in
      let* inst_name = str_field "instance_name" j in
      let* inst_j = field "instance" j in
      let* inst = instance_of_json inst_j in
      let* witness_j = field "witness" j in
      let* witness = entries_of_json ~ctx:"witness" inst witness_j in
      let* channel_bound = int_field "channel_bound" j in
      let* max_states = int_field "max_states" j in
      Ok
        {
          name;
          case =
            Negative_refutation
              {
                inst_name;
                inst;
                non_realizer;
                target_model;
                level;
                termination;
                witness;
                channel_bound;
                max_states;
              };
        }
    | k -> Error (Fmt.str "unknown corpus entry kind %S" k)

(* ------------------------------------------------------------------ *)
(* The corpus file codec every schema shares: one JSON document per file,
   ended by a newline. *)

type outcome = { name : string; ok : bool; detail : string }

module type ENTRY = sig
  type t

  val to_json : t -> Json.v
  val of_json : Json.v -> (t, string) result
  val replay : t -> outcome
end

module File (E : ENTRY) = struct
  (* Atomic: a crash mid-write must never corrupt a committed artifact in
     place. *)
  let save path e = Snapshot.write_atomic path (Json.to_string (E.to_json e) ^ "\n")

  let load path =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg -> Error msg
    | contents ->
      Result.map_error
        (fun e -> Fmt.str "%s: %s" path e)
        (let n = String.length contents in
         (* [save] always ends the file with '\n' and the JSON body contains
            no raw newline, so requiring it makes every strict byte-prefix
            of a valid file fail instead of parsing as a shorter document. *)
         let* () =
           if n > 0 && contents.[n - 1] = '\n' then Ok ()
           else Error "truncated entry (missing trailing newline)"
         in
         let* j = Json.parse contents in
         E.of_json j)

  let emit dir name e =
    Snapshot.mkdir_p dir;
    let path = Filename.concat dir (name ^ ".json") in
    save path e;
    Snapshot.remove_stale_temps path;
    path

  let replay_file path =
    match load path with
    | Ok e -> E.replay e
    | Error e -> { name = Filename.basename path; ok = false; detail = "parse: " ^ e }
end

(* ------------------------------------------------------------------ *)

let replay t =
  match t.case with
  | Positive (p, expect) ->
    let verdict = Trial.check_positive p in
    let ok, detail =
      match (verdict, expect) with
      | Trial.Holds, Expect_holds -> (true, "holds, as expected")
      | Trial.Violated v, Expect_violated v0 when Trial.same_violation v v0 ->
        (true, Fmt.str "still violated: %a" Trial.pp_violation v)
      | Trial.Holds, Expect_violated v0 ->
        ( false,
          Fmt.str "expected %s but the trial now holds" (Trial.violation_name v0) )
      | Trial.Violated v, Expect_holds ->
        (false, Fmt.str "unexpected violation: %a" Trial.pp_violation v)
      | Trial.Violated v, Expect_violated v0 ->
        ( false,
          Fmt.str "expected %s but got %s" (Trial.violation_name v0)
            (Trial.violation_name v) )
    in
    { name = t.name; ok; detail }
  | Negative_refutation r -> (
    let config =
      {
        Modelcheck.Explore.channel_bound = r.channel_bound;
        max_states = r.max_states;
      }
    in
    let valid = Model.validates (View.spp r.inst) r.target_model in
    match List.find_index (fun e -> not (valid e)) r.witness with
    | Some i ->
      {
        name = t.name;
        ok = false;
        detail = Fmt.str "witness entry %d illegal in the target model" i;
      }
    | None -> (
      let target =
        Trace.assignments ~include_initial:true
          (Executor.run_entries r.inst r.witness)
      in
      match
        Modelcheck.Refute.realizable ~config ~termination:r.termination r.inst
          r.non_realizer r.level ~target
      with
      | Modelcheck.Refute.Impossible ->
        { name = t.name; ok = true; detail = "still impossible" }
      | Modelcheck.Refute.Realizable entries ->
        {
          name = t.name;
          ok = false;
          detail =
            Fmt.str "a %d-step realizing schedule exists" (List.length entries);
        }
      | Modelcheck.Refute.Unknown reason ->
        {
          name = t.name;
          ok = false;
          detail = "committed budget now inconclusive: " ^ reason;
        }))

include File (struct
  type nonrec t = t

  let to_json = to_json
  let of_json = of_json
  let replay = replay
end)

module Json = Engine.Metrics.Json

let ( let* ) = Result.bind

let manifest_magic = "commrouting/job/v1"

type outcome = Pending | Finished of Json.v | Crashed of string

type job = {
  metrics : Engine.Metrics.t;
  cell : outcome Atomic.t;
  mutable last_reported : int;
  mutable domain : unit Domain.t option;
}

type t = {
  store : Store.t;
  jobs_dir : string;
  running : (string, job) Hashtbl.t;
}

let create ~store =
  let jobs_dir = Filename.concat (Store.dir store) "jobs" in
  match Unix.mkdir jobs_dir 0o755 with
  | () | (exception Unix.Unix_error (Unix.EEXIST, _, _)) ->
    (* Clear write_atomic temp files left by a killed writer. *)
    (match Sys.readdir jobs_dir with
    | names ->
      Array.iter
        (fun n ->
          let has_tmp =
            let needle = ".tmp." in
            let ln = String.length n and lk = String.length needle in
            let rec scan i =
              i + lk <= ln && (String.sub n i lk = needle || scan (i + 1))
            in
            scan 0
          in
          if has_tmp then
            try Sys.remove (Filename.concat jobs_dir n) with Sys_error _ -> ())
        names
    | exception Sys_error _ -> ());
    Ok { store; jobs_dir; running = Hashtbl.create 7 }
  | exception Unix.Unix_error (e, _, _) ->
    Error (Error.Io { path = jobs_dir; message = Unix.error_message e })

let job_id inst model config = Query.check_key inst model config ~instance:()

let manifest_path t id = Filename.concat t.jobs_dir (id ^ ".job")
let ckpt_path t id = Filename.concat t.jobs_dir (id ^ ".ckpt")

(* ------------------------------------------------------------------ *)
(* Manifests: the request, framed and checksummed, written atomically
   before the job's domain starts — the durable half of resumability. *)

type manifest = {
  m_instance : string;
  m_model : Engine.Model.t;
  m_config : Protocol.query_config;
  m_every : int;
}

let save_manifest t ~id m =
  let payload =
    Json.to_string
      (Json.Obj
         [
           ("schema", Json.Str manifest_magic);
           ("instance", Json.Str m.m_instance);
           ("model", Json.Str (Engine.Model.to_string m.m_model));
           ("bound", Json.Num (float_of_int m.m_config.Protocol.bound));
           ("max_states", Json.Num (float_of_int m.m_config.Protocol.max_states));
           ("every", Json.Num (float_of_int m.m_every));
         ])
  in
  match
    Engine.Snapshot.write_atomic (manifest_path t id)
      (Engine.Snapshot.framed ~magic:manifest_magic payload)
  with
  | () -> Ok ()
  | exception Sys_error msg ->
    Error (Error.Io { path = manifest_path t id; message = msg })

let load_manifest t ~id =
  let path = manifest_path t id in
  if not (Sys.file_exists path) then Error (Error.Unknown_job id)
  else
    let corrupt detail = Error (Error.Corrupt { path; detail }) in
    match Engine.Snapshot.read_framed ~magic:manifest_magic path with
    | Error e -> corrupt (Engine.Snapshot.error_to_string e)
    | Ok j -> (
      let str name =
        match Json.member name j with Some (Json.Str s) -> Some s | _ -> None
      in
      let int name =
        match Json.member name j with
        | Some (Json.Num f) when Float.is_integer f -> Some (int_of_float f)
        | _ -> None
      in
      match (str "instance", str "model", int "bound", int "max_states", int "every") with
      | Some m_instance, Some ms, Some bound, Some max_states, Some m_every -> (
        match Engine.Model.of_string ms with
        | Some m_model ->
          Ok
            {
              m_instance;
              m_model;
              m_config = { Protocol.bound; max_states };
              m_every;
            }
        | None -> corrupt (Printf.sprintf "unknown model %S in manifest" ms))
      | _ -> corrupt "manifest is missing fields")

(* ------------------------------------------------------------------ *)

let store_probe t ~id:_ inst model config =
  Store.get t.store
    ~instance:(Engine.Snapshot.fingerprint inst)
    ~model:(Engine.Model.to_string model)
    ~config_fp:(Query.check_fp config)

let launch t ~id inst (m : manifest) =
  let resume =
    let path = ckpt_path t id in
    if Sys.file_exists path then
      match Engine.Snapshot.load ~path inst with
      | Ok snap -> Some snap
      | Error _ ->
        (* A torn or mismatched checkpoint: start over rather than fail —
           the manifest is the source of truth. *)
        (try Sys.remove path with Sys_error _ -> ());
        None
    else None
  in
  let metrics = Engine.Metrics.create () in
  let cell = Atomic.make Pending in
  let job = { metrics; cell; last_reported = 0; domain = None } in
  let store = t.store in
  let ckpt = ckpt_path t id in
  let config = m.m_config in
  let model = m.m_model in
  let every = m.m_every in
  let body () =
    match
      Query.compute_check ~metrics
        ~checkpoint:{ Modelcheck.Explore.path = ckpt; every }
        ?resume inst model config
    with
    | result ->
      ignore
        (Store.put store
           ~instance:(Engine.Snapshot.fingerprint inst)
           ~model:(Engine.Model.to_string model)
           ~config_fp:(Query.check_fp config)
           result);
      (try Sys.remove ckpt with Sys_error _ -> ());
      Atomic.set cell (Finished result)
    | exception e -> Atomic.set cell (Crashed (Printexc.to_string e))
  in
  (* OCaml caps the number of live domains; past the cap [Domain.spawn]
     raises.  The job is registered only once it runs, and its manifest
     stays on disk, so a later [job_resume] can retry. *)
  match Domain.spawn body with
  | d ->
    job.domain <- Some d;
    Hashtbl.replace t.running id job;
    Ok ()
  | exception e ->
    let why = Printexc.to_string e in
    Error (Error.Internal (Printf.sprintf "job %s: cannot start: %s" id why))

let start t ~instance ~model ~config ~every =
  let* inst = Resolve.find instance in
  let id = job_id inst model config in
  if Hashtbl.mem t.running id then Ok (id, None)
  else
    match store_probe t ~id inst model config with
    | Some r -> Ok (id, Some r)
    | None ->
      let m = { m_instance = instance; m_model = model; m_config = config; m_every = every } in
      let* () = save_manifest t ~id m in
      let* () = launch t ~id inst m in
      Ok (id, None)

let resume t ~id =
  if Hashtbl.mem t.running id then Ok None
  else
    let* m = load_manifest t ~id in
    let* inst = Resolve.find m.m_instance in
    match store_probe t ~id inst m.m_model m.m_config with
    | Some r -> Ok (Some r)
    | None ->
      let* () = launch t ~id inst m in
      Ok None

let status t ~id =
  match Hashtbl.find_opt t.running id with
  | Some job ->
    Ok
      (Json.Obj
         [
           ("state", Json.Str "running");
           ( "states",
             Json.Num (float_of_int (Engine.Metrics.states_interned job.metrics))
           );
         ])
  | None -> (
    match load_manifest t ~id with
    | Error (Error.Unknown_job _ as e) -> Error e
    | Error e -> Error e
    | Ok m -> (
      let* inst = Resolve.find m.m_instance in
      match store_probe t ~id inst m.m_model m.m_config with
      | Some _ -> Ok (Json.Obj [ ("state", Json.Str "done") ])
      | None ->
        Ok
          (Json.Obj
             [
               ("state", Json.Str "suspended");
               ("checkpoint", Json.Bool (Sys.file_exists (ckpt_path t id)));
             ])))

(* ------------------------------------------------------------------ *)

type event =
  | Progress of { id : string; states : int }
  | Done of { id : string; result : Engine.Metrics.Json.v }
  | Failed of { id : string; message : string }

let poll t =
  let events = ref [] in
  let finished = ref [] in
  Hashtbl.iter
    (fun id job ->
      match Atomic.get job.cell with
      | Pending ->
        let states = Engine.Metrics.states_interned job.metrics in
        if states > job.last_reported then begin
          job.last_reported <- states;
          events := Progress { id; states } :: !events
        end
      | Finished result ->
        (match job.domain with Some d -> Domain.join d | None -> ());
        finished := id :: !finished;
        events := Done { id; result } :: !events
      | Crashed message ->
        (match job.domain with Some d -> Domain.join d | None -> ());
        finished := id :: !finished;
        events := Failed { id; message } :: !events)
    t.running;
  List.iter (Hashtbl.remove t.running) !finished;
  List.rev !events

let running t = Hashtbl.length t.running

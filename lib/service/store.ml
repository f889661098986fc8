module Json = Engine.Metrics.Json

let magic = "commrouting/store/v1"

type config = { dir : string; max_entries : int }

let default_max_entries = 512

type t = {
  cfg : config;
  hits : int Atomic.t;
  misses : int Atomic.t;
  puts : int Atomic.t;
  corrupt : int Atomic.t;
  mismatch : int Atomic.t;
  lru : int Atomic.t;
}

type stats = {
  hits : int;
  misses : int;
  puts : int;
  corrupt_evicted : int;
  mismatch_evicted : int;
  lru_evicted : int;
}

let is_tmp name =
  (* write_atomic temp names embed ".tmp." after the target name. *)
  let needle = ".tmp." in
  let n = String.length name and k = String.length needle in
  let rec scan i = i + k <= n && (String.sub name i k = needle || scan (i + 1)) in
  scan 0

let sweep_stale_tmp dir =
  match Sys.readdir dir with
  | names ->
    Array.iter
      (fun name ->
        if is_tmp name then
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      names
  | exception Sys_error _ -> ()

let open_ cfg =
  match
    Engine.Snapshot.mkdir_p cfg.dir;
    sweep_stale_tmp cfg.dir
  with
  | () ->
    Ok
      {
        cfg;
        hits = Atomic.make 0;
        misses = Atomic.make 0;
        puts = Atomic.make 0;
        corrupt = Atomic.make 0;
        mismatch = Atomic.make 0;
        lru = Atomic.make 0;
      }
  | exception Unix.Unix_error (e, _, _) ->
    Error (Error.Io { path = cfg.dir; message = Unix.error_message e })
  | exception Sys_error m -> Error (Error.Io { path = cfg.dir; message = m })

let config_fingerprint parts =
  Digest.to_hex (Digest.string (String.concat "\x00" (magic :: parts)))

let key ~instance ~model ~config_fp =
  Digest.to_hex (Digest.string (String.concat "\x00" [ instance; model; config_fp ]))

let suffix = ".res"
let entry_path t ~key = Filename.concat t.cfg.dir (key ^ suffix)
let dir t = t.cfg.dir

let entries t =
  match Sys.readdir t.cfg.dir with
  | names ->
    Array.to_list names
    |> List.filter (fun n -> Filename.check_suffix n suffix && not (is_tmp n))
  | exception Sys_error _ -> []

let entry_count t = List.length (entries t)

let evict path counter =
  (try Sys.remove path with Sys_error _ -> ());
  Atomic.incr counter

(* The LRU cap.  Recency is mtime (refreshed by [get] on every hit);
   candidates are ordered oldest first with the file name as a
   deterministic tie-break, and the entry just written is never a
   candidate — with second-granularity timestamps it could otherwise be
   evicted by its own [put]. *)
let enforce_cap t ~keep =
  let max_entries = t.cfg.max_entries in
  if max_entries > 0 then begin
    let stamped =
      List.filter_map
        (fun name ->
          if String.equal name (keep ^ suffix) then None
          else
            let path = Filename.concat t.cfg.dir name in
            match Unix.stat path with
            | st -> Some (st.Unix.st_mtime, name, path)
            | exception Unix.Unix_error _ -> None)
        (entries t)
    in
    let excess = List.length stamped + 1 - max_entries in
    if excess > 0 then
      List.sort compare stamped
      |> List.filteri (fun i _ -> i < excess)
      |> List.iter (fun (_, _, path) -> evict path t.lru)
  end

let get t ~instance ~model ~config_fp =
  let k = key ~instance ~model ~config_fp in
  let path = entry_path t ~key:k in
  let miss () =
    Atomic.incr t.misses;
    None
  in
  if not (Sys.file_exists path) then miss ()
  else
    match Engine.Snapshot.read_framed ~magic path with
    | Error _ ->
      (* Truncated, bit-rotted, or written under another schema version:
         evict so the next put rebuilds it, and report a miss. *)
      evict path t.corrupt;
      miss ()
    | Ok j -> (
      let str_field name =
        match Json.member name j with Some (Json.Str s) -> Some s | _ -> None
      in
      let matches =
        str_field "instance" = Some instance
        && str_field "model" = Some model
        && str_field "config" = Some config_fp
      in
      if not matches then begin
        (* A well-formed entry for the wrong key: a config-fingerprint
           drift (result schema bump) or a digest collision.  Refuse and
           evict — serving it would be silently wrong. *)
        evict path t.mismatch;
        miss ()
      end
      else
        match Json.member "result" j with
        | Some r ->
          (* Refresh recency for the LRU cap; 0/0 means "now". *)
          (try Unix.utimes path 0. 0. with Unix.Unix_error _ -> ());
          Atomic.incr t.hits;
          Some r
        | None ->
          evict path t.corrupt;
          miss ())

let put t ~instance ~model ~config_fp result =
  let k = key ~instance ~model ~config_fp in
  let payload =
    Json.to_string
      (Json.Obj
         [
           ("schema", Json.Str magic);
           ("instance", Json.Str instance);
           ("model", Json.Str model);
           ("config", Json.Str config_fp);
           ("result", result);
         ])
  in
  match
    Engine.Snapshot.write_atomic (entry_path t ~key:k)
      (Engine.Snapshot.framed ~magic payload)
  with
  | () ->
    Atomic.incr t.puts;
    enforce_cap t ~keep:k;
    Ok ()
  | exception Sys_error m ->
    Error (Error.Io { path = entry_path t ~key:k; message = m })

let stats (t : t) =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    puts = Atomic.get t.puts;
    corrupt_evicted = Atomic.get t.corrupt;
    mismatch_evicted = Atomic.get t.mismatch;
    lru_evicted = Atomic.get t.lru;
  }

let stats_json t =
  let s = stats t in
  let num i = Json.Num (float_of_int i) in
  Json.Obj
    [
      ("hits", num s.hits);
      ("misses", num s.misses);
      ("puts", num s.puts);
      ("corrupt_evicted", num s.corrupt_evicted);
      ("mismatch_evicted", num s.mismatch_evicted);
      ("lru_evicted", num s.lru_evicted);
      ("entries", num (entry_count t));
    ]

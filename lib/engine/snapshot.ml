open Spp
module Json = Metrics.Json

let magic = "commrouting/snapshot/v2"

type error =
  | Io of { path : string; message : string }
  | Bad_magic of { path : string; found : string }
  | Truncated of { path : string; expected : int; got : int }
  | Checksum_mismatch of { path : string }
  | Parse of { path : string; context : string; message : string }
  | Mismatch of { path : string; what : string; expected : string; got : string }

let error_to_string = function
  | Io { path; message } -> Fmt.str "%s: %s" path message
  | Bad_magic { path; found } ->
    Fmt.str "%s: not a %S snapshot (found %S)" path magic found
  | Truncated { path; expected; got } ->
    Fmt.str "%s: truncated snapshot: header promises %d payload bytes, file has %d"
      path expected got
  | Checksum_mismatch { path } ->
    Fmt.str "%s: snapshot payload does not match its checksum (corrupt file)" path
  | Parse { path; context; message } ->
    Fmt.str "%s: invalid snapshot payload at %s: %s" path context message
  | Mismatch { path; what; expected; got } ->
    Fmt.str "%s: snapshot %s mismatch: expected %s, found %s" path what expected got

let pp_error ppf e = Fmt.string ppf (error_to_string e)

(* ------------------------------------------------------------------ *)
(* Atomic, durable writes.  The temp file lives next to the target (same
   filesystem, so the rename is atomic) and its name carries the pid, the
   domain id and a process-wide counter: the pid alone is not unique when
   two domains of one process checkpoint to the same path concurrently,
   and a collision would interleave their partial writes.  Durability:
   the temp file is fsynced before the rename and the containing
   directory after it, so once [write_atomic] returns, a crash or power
   cut can no longer roll the rename back or surface an empty file where
   the old contents were. *)

let tmp_seq = Atomic.make 0

let write_atomic path contents =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d.%d" path (Unix.getpid ())
      (Domain.self () :> int)
      (Atomic.fetch_and_add tmp_seq 1)
  in
  let sys_error fn e =
    Sys_error (Printf.sprintf "%s: %s: %s" tmp fn (Unix.error_message e))
  in
  let oc = open_out_bin tmp in
  (match
     output_string oc contents;
     flush oc;
     (try Unix.fsync (Unix.descr_of_out_channel oc)
      with Unix.Unix_error (e, _, _) -> raise (sys_error "fsync" e));
     close_out oc
   with
  | () -> ()
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  match Sys.rename tmp path with
  | () ->
    (* Directory fsync is best effort: without it the rename itself may
       not be durable, but some filesystems refuse fsync on directories
       and the data is already safe on disk either way. *)
    (match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
    | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
    | exception Unix.Unix_error _ -> ())
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* A writer killed between creating its temp file and the rename leaves
   [path.tmp.<pid>.*] behind.  Temps of the calling process may belong to a
   write in flight on another domain, so only other pids' are removed. *)
let remove_stale_temps path =
  let prefix = Filename.basename path ^ ".tmp." in
  let mine = Printf.sprintf "%s%d." prefix (Unix.getpid ()) in
  match Sys.readdir (Filename.dirname path) with
  | names ->
    Array.iter
      (fun name ->
        if String.starts_with ~prefix name && not (String.starts_with ~prefix:mine name) then
          try Sys.remove (Filename.concat (Filename.dirname path) name) with Sys_error _ -> ())
      names
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)

let fingerprint inst =
  let buf = Buffer.create 256 in
  Array.iter
    (fun n ->
      Buffer.add_string buf n;
      Buffer.add_char buf '\x00')
    (Instance.names inst);
  Buffer.add_string buf (Printf.sprintf "|d%d|" (Instance.dest inst));
  List.iter
    (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "%d-%d;" a b))
    (Instance.edges inst);
  List.iter
    (fun (v, p, r) ->
      Buffer.add_string buf (Printf.sprintf "%d@%d:" v r);
      List.iter
        (fun n ->
          Buffer.add_string buf (string_of_int n);
          Buffer.add_char buf ',')
        (Path.to_nodes p);
      Buffer.add_char buf ';')
    (Instance.all_permitted inst);
  Digest.to_hex (Digest.string (Buffer.contents buf))

type label = {
  entry : Activation.t;
  l_reads : Channel.id list;
  l_drops : Channel.id list;
  l_cleans : Channel.id list;
}

type edge = { dst : int; label : label }

type counters = {
  interned : int;
  dedup : int;
  edges : int;
  pruned_writes : int;
  truncated_interns : int;
  peak_frontier : int;
  ample : int;
}

type t = {
  channel_bound : int;
  max_states : int;
  reduction : string;
  states : State.t array;
  rows : (int * edge list) list;
  frontier : int list;
  pruned : bool;
  truncated : bool;
  counters : counters;
}

(* ------------------------------------------------------------------ *)
(* Encoding.  Routes are indexed into a local path table (index 0 is
   epsilon, the rest in first-use order, each entry the node list), so the
   payload is independent of the process's arena numbering.  Edge labels
   repeat massively across rows (polling models enumerate the same handful
   of entries at every state), so they are hash-consed into a side table
   keyed by their serialized form and rows reference them by index. *)

let num i = Json.Num (float_of_int i)
let chan_json (c : Channel.id) = Json.List [ num c.Channel.src; num c.Channel.dst ]

(* A fresh path table: [pid_of] interns route ids into it, [table_json]
   renders it (index 0 is epsilon) — call only after every state has been
   encoded. *)
let make_path_table () =
  let ptbl = Hashtbl.create 1024 in
  Hashtbl.add ptbl Arena.epsilon 0;
  let paths_rev = ref [] and n_paths = ref 1 in
  let pid_of id =
    match Hashtbl.find_opt ptbl id with
    | Some i -> i
    | None ->
      let i = !n_paths in
      incr n_paths;
      Hashtbl.add ptbl id i;
      paths_rev := Arena.to_nodes id :: !paths_rev;
      i
  in
  let table_json () =
    Json.List
      (Json.List []
      :: List.rev_map (fun nodes -> Json.List (List.map num nodes)) !paths_rev)
  in
  (pid_of, table_json)

let state_json inst ~pid_of st =
  let core get =
    List.filter_map
      (fun v ->
        let p = get st v in
        if Arena.is_epsilon p then None else Some (Json.List [ num v; num (pid_of p) ]))
      (Instance.nodes inst)
  in
  let pi = core State.pi_id and ann = core State.announced_id in
  let rho =
    List.map
      (fun ((c : Channel.id), p) ->
        Json.List [ num c.Channel.src; num c.Channel.dst; num (pid_of p) ])
      (State.rho_bindings_id st)
  in
  let chans =
    List.map
      (fun ((c : Channel.id), msgs) ->
        Json.List
          [
            num c.Channel.src;
            num c.Channel.dst;
            Json.List (List.map (fun m -> num (pid_of m)) msgs);
          ])
      (Channel.bindings (State.channels st))
  in
  Json.Obj
    [
      ("pi", Json.List pi);
      ("rho", Json.List rho);
      ("ann", Json.List ann);
      ("chans", Json.List chans);
    ]

let label_json l =
  Json.Obj
    [
      ("active", Json.List (List.map num l.entry.Activation.active));
      ( "reads",
        Json.List
          (List.map
             (fun (r : Activation.read) ->
               Json.List
                 [
                   num r.Activation.chan.Channel.src;
                   num r.Activation.chan.Channel.dst;
                   num
                     (match r.Activation.count with
                     | Activation.All -> -1
                     | Activation.Finite n -> n);
                   Json.List (List.map num (Activation.IntSet.elements r.Activation.drops));
                 ])
             l.entry.Activation.reads) );
      ("er", Json.List (List.map chan_json l.l_reads));
      ("ed", Json.List (List.map chan_json l.l_drops));
      ("ec", Json.List (List.map chan_json l.l_cleans));
    ]

let to_payload inst t =
  let pid_of, table_json = make_path_table () in
  let ltbl = Hashtbl.create 64 in
  let labels_rev = ref [] and n_labels = ref 0 in
  let lid_of l =
    let j = label_json l in
    let key = Json.to_string j in
    match Hashtbl.find_opt ltbl key with
    | Some i -> i
    | None ->
      let i = !n_labels in
      incr n_labels;
      Hashtbl.add ltbl key i;
      labels_rev := j :: !labels_rev;
      i
  in
  let states_j =
    Json.List (Array.to_list (Array.map (state_json inst ~pid_of) t.states))
  in
  let rows_j =
    Json.List
      (List.map
         (fun (i, es) ->
           Json.List
             (num i :: List.concat_map (fun e -> [ num e.dst; num (lid_of e.label) ]) es))
         t.rows)
  in
  let counters_j =
    Json.Obj
      [
        ("interned", num t.counters.interned);
        ("dedup", num t.counters.dedup);
        ("edges", num t.counters.edges);
        ("pruned_writes", num t.counters.pruned_writes);
        ("truncated_interns", num t.counters.truncated_interns);
        ("peak_frontier", num t.counters.peak_frontier);
        ("ample", num t.counters.ample);
      ]
  in
  (* The path table is populated by the encoders above, so it must be
     rendered after [states_j] and [rows_j]. *)
  Json.Obj
    [
      ("schema", Json.Str magic);
      ("instance", Json.Str (fingerprint inst));
      ("channel_bound", num t.channel_bound);
      ("max_states", num t.max_states);
      ("reduction", Json.Str t.reduction);
      ("paths", table_json ());
      ("labels", Json.List (List.rev !labels_rev));
      ("states", states_j);
      ("rows", rows_j);
      ("frontier", Json.List (List.map num t.frontier));
      ("pruned", Json.Bool t.pruned);
      ("truncated", Json.Bool t.truncated);
      ("counters", counters_j);
    ]

let framed ~magic payload =
  Printf.sprintf "%s %s %d\n" magic
    (Digest.to_hex (Digest.string payload))
    (String.length payload)
  ^ payload

let save ~path inst t =
  write_atomic path (framed ~magic (Json.to_string (to_payload inst t)))

(* ------------------------------------------------------------------ *)
(* Decoding.  Every failure is a typed [Error] carrying the path and a
   field context; nothing raises, nothing half-loads. *)

let ( let* ) = Result.bind

let perr ~path context message = Error (Parse { path; context; message })

let as_int ~path ctx = function
  | Json.Num f -> Ok (int_of_float f)
  | _ -> perr ~path ctx "expected a number"

let as_list ~path ctx = function
  | Json.List l -> Ok l
  | _ -> perr ~path ctx "expected a list"

let as_bool ~path ctx = function
  | Json.Bool b -> Ok b
  | _ -> perr ~path ctx "expected a bool"

let as_str ~path ctx = function
  | Json.Str s -> Ok s
  | _ -> perr ~path ctx "expected a string"

let field ~path ctx name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> perr ~path ctx (Printf.sprintf "missing field %S" name)

let int_field ~path ctx name j =
  let* v = field ~path ctx name j in
  as_int ~path (ctx ^ "." ^ name) v

let list_field ~path ctx name j =
  let* v = field ~path ctx name j in
  as_list ~path (ctx ^ "." ^ name) v

let bool_field ~path ctx name j =
  let* v = field ~path ctx name j in
  as_bool ~path (ctx ^ "." ^ name) v

let str_field ~path ctx name j =
  let* v = field ~path ctx name j in
  as_str ~path (ctx ^ "." ^ name) v

(* Tail-recursive indexed map: snapshots can hold 10^5 states. *)
let mapi_m ctx f l =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
      match f (Printf.sprintf "%s[%d]" ctx i) x with
      | Ok y -> go (i + 1) (y :: acc) rest
      | Error _ as e -> e)
  in
  go 0 [] l

let decode_node ~path ~inst ctx v =
  let n_nodes = Instance.size inst in
  if v >= 0 && v < n_nodes then Ok v
  else
    perr ~path ctx (Printf.sprintf "node id %d out of range (instance has %d)" v n_nodes)

let decode_chan ~path ~inst ctx = function
  | Json.List [ s; d ] ->
    let* s = as_int ~path ctx s in
    let* d = as_int ~path ctx d in
    let* s = decode_node ~path ~inst ctx s in
    let* d = decode_node ~path ~inst ctx d in
    Ok (Channel.id ~src:s ~dst:d)
  | _ -> perr ~path ctx "expected a [src, dst] pair"

(* Instance guard: nothing is interned or rebuilt before the fingerprint
   matches. *)
let check_instance ~path ~inst j =
  let* got_fp = str_field ~path "payload" "instance" j in
  let want_fp = fingerprint inst in
  if String.equal got_fp want_fp then Ok ()
  else
    Error
      (Mismatch { path; what = "instance fingerprint"; expected = want_fp; got = got_fp })

(* Path table: re-intern every node list into this process's arena.
   Returns a lookup checked against the table bounds. *)
let decode_path_table ~path ~inst j =
  let* paths_j = list_field ~path "payload" "paths" j in
  let* paths =
    mapi_m "paths" (fun ctx pj ->
        let* nodes = as_list ~path ctx pj in
        let* nodes =
          mapi_m ctx
            (fun c nj ->
              let* v = as_int ~path c nj in
              decode_node ~path ~inst c v)
            nodes
        in
        match nodes with
        | [] -> Ok Arena.epsilon
        | _ -> (
          match Arena.of_nodes nodes with
          | id -> Ok id
          | exception Invalid_argument m -> perr ~path ctx ("invalid path: " ^ m)))
      paths_j
  in
  let paths = Array.of_list paths in
  let n_paths = Array.length paths in
  if n_paths = 0 || not (Arena.is_epsilon paths.(0)) then
    perr ~path "paths[0]" "the first path-table entry must be epsilon"
  else
    Ok
      (fun ctx i ->
        if i >= 0 && i < n_paths then Ok paths.(i)
        else
          perr ~path ctx
            (Printf.sprintf "path index %d out of range (table has %d)" i n_paths))

(* One state, rebuilt through the public State API so digests and
   occupancy caches are recomputed in this process. *)
let decode_state ~path ~inst ~pid ctx sj =
  let binding what bj =
    match bj with
    | Json.List [ v; p ] ->
      let* v = as_int ~path what v in
      let* v = decode_node ~path ~inst what v in
      let* p = as_int ~path what p in
      let* p = pid what p in
      Ok (v, p)
    | _ -> perr ~path what "expected a [node, path] pair"
  in
  let* pi_j = list_field ~path ctx "pi" sj in
  let* pi = mapi_m (ctx ^ ".pi") binding pi_j in
  let* ann_j = list_field ~path ctx "ann" sj in
  let* ann = mapi_m (ctx ^ ".ann") binding ann_j in
  let* rho_j = list_field ~path ctx "rho" sj in
  let* rho =
    mapi_m (ctx ^ ".rho")
      (fun c rj ->
        match rj with
        | Json.List [ s; d; p ] ->
          let* s = as_int ~path c s in
          let* d = as_int ~path c d in
          let* s = decode_node ~path ~inst c s in
          let* d = decode_node ~path ~inst c d in
          let* p = as_int ~path c p in
          let* p = pid c p in
          Ok (Channel.id ~src:s ~dst:d, p)
        | _ -> perr ~path c "expected a [src, dst, path] triple")
      rho_j
  in
  let* chans_j = list_field ~path ctx "chans" sj in
  let* chans =
    mapi_m (ctx ^ ".chans")
      (fun c cj ->
        match cj with
        | Json.List [ s; d; Json.List msgs ] ->
          let* s = as_int ~path c s in
          let* d = as_int ~path c d in
          let* s = decode_node ~path ~inst c s in
          let* d = decode_node ~path ~inst c d in
          let* msgs =
            mapi_m c
              (fun cc mj ->
                let* m = as_int ~path cc mj in
                pid cc m)
              msgs
          in
          if msgs = [] then perr ~path c "empty channel queue must not be stored"
          else Ok (Channel.id ~src:s ~dst:d, msgs)
        | _ -> perr ~path c "expected [src, dst, [messages]]")
      chans_j
  in
  let s0 = State.initial inst in
  let s0 = State.with_pi_id s0 (Instance.dest inst) Arena.epsilon in
  let s = List.fold_left (fun s (v, p) -> State.with_pi_id s v p) s0 pi in
  let s = List.fold_left (fun s (c, p) -> State.with_rho_id s c p) s rho in
  let s = List.fold_left (fun s (v, p) -> State.with_announced_id s v p) s ann in
  let chmap =
    List.fold_left
      (fun m (c, msgs) -> List.fold_left (fun m p -> Channel.push m c p) m msgs)
      Channel.empty chans
  in
  Ok (State.with_channels s chmap)

let decode path inst j =
  let* () = check_instance ~path ~inst j in
  let* channel_bound = int_field ~path "payload" "channel_bound" j in
  let* max_states = int_field ~path "payload" "max_states" j in
  let* reduction = str_field ~path "payload" "reduction" j in
  let* pid = decode_path_table ~path ~inst j in
  (* Labels. *)
  let* labels_j = list_field ~path "payload" "labels" j in
  let* labels =
    mapi_m "labels" (fun ctx lj ->
        let* active_j = list_field ~path ctx "active" lj in
        let* active =
          mapi_m (ctx ^ ".active")
            (fun c vj ->
              let* v = as_int ~path c vj in
              decode_node ~path ~inst c v)
            active_j
        in
        let* reads_j = list_field ~path ctx "reads" lj in
        let* reads =
          mapi_m (ctx ^ ".reads")
            (fun c rj ->
              match rj with
              | Json.List [ s; d; cnt; drops ] ->
                let* s = as_int ~path c s in
                let* d = as_int ~path c d in
                let* s = decode_node ~path ~inst c s in
                let* d = decode_node ~path ~inst c d in
                let* cnt = as_int ~path c cnt in
                let* drops = as_list ~path c drops in
                let* drops = mapi_m c (fun cc dj -> as_int ~path cc dj) drops in
                let count = if cnt < 0 then Activation.All else Activation.Finite cnt in
                Ok (Activation.read ~drops ~count (Channel.id ~src:s ~dst:d))
              | _ -> perr ~path c "expected [src, dst, count, drops]")
            reads_j
        in
        let* er = list_field ~path ctx "er" lj in
        let* l_reads = mapi_m (ctx ^ ".er") (decode_chan ~path ~inst) er in
        let* ed = list_field ~path ctx "ed" lj in
        let* l_drops = mapi_m (ctx ^ ".ed") (decode_chan ~path ~inst) ed in
        let* ec = list_field ~path ctx "ec" lj in
        let* l_cleans = mapi_m (ctx ^ ".ec") (decode_chan ~path ~inst) ec in
        match Activation.entry ~active ~reads with
        | entry -> Ok { entry; l_reads; l_drops; l_cleans }
        | exception Invalid_argument m -> perr ~path ctx ("invalid entry: " ^ m))
      labels_j
  in
  let labels = Array.of_list labels in
  let n_labels = Array.length labels in
  let* states_j = list_field ~path "payload" "states" j in
  let* states = mapi_m "states" (decode_state ~path ~inst ~pid) states_j in
  let states = Array.of_list states in
  let n_states = Array.length states in
  let state_id ctx i =
    if i >= 0 && i < n_states then Ok i
    else
      perr ~path ctx
        (Printf.sprintf "state id %d out of range (snapshot has %d)" i n_states)
  in
  (* Rows: flat [i, dst0, label0, dst1, label1, ...]. *)
  let* rows_j = list_field ~path "payload" "rows" j in
  let* rows =
    mapi_m "rows" (fun ctx rj ->
        let* flat = as_list ~path ctx rj in
        let* flat = mapi_m ctx (fun c fj -> as_int ~path c fj) flat in
        match flat with
        | [] -> perr ~path ctx "empty row"
        | i :: rest ->
          let* i = state_id ctx i in
          let rec edges acc = function
            | [] -> Ok (List.rev acc)
            | [ _ ] -> perr ~path ctx "odd number of edge fields"
            | d :: l :: rest ->
              if l < 0 || l >= n_labels then
                perr ~path ctx
                  (Printf.sprintf "label index %d out of range (table has %d)" l n_labels)
              else
                let* d = state_id ctx d in
                edges ({ dst = d; label = labels.(l) } :: acc) rest
          in
          let* es = edges [] rest in
          Ok (i, es))
      rows_j
  in
  let* frontier_j = list_field ~path "payload" "frontier" j in
  let* frontier =
    mapi_m "frontier"
      (fun ctx fj ->
        let* i = as_int ~path ctx fj in
        state_id ctx i)
      frontier_j
  in
  (* Progress invariant: every interned state is either expanded (has an
     adjacency row) or still queued, never both, never neither — a
     snapshot violating it would resume into a graph with silently
     missing rows. *)
  let seen = Array.make n_states 0 in
  List.iter (fun (i, _) -> seen.(i) <- seen.(i) + 1) rows;
  List.iter (fun i -> seen.(i) <- seen.(i) + 1) frontier;
  let bad = ref None in
  Array.iteri (fun i c -> if c <> 1 && !bad = None then bad := Some (i, c)) seen;
  match !bad with
  | Some (i, c) ->
    perr ~path "rows"
      (Printf.sprintf "state %d appears %d times across rows + frontier (want 1)" i c)
  | None ->
    let* pruned = bool_field ~path "payload" "pruned" j in
    let* truncated = bool_field ~path "payload" "truncated" j in
    let* cj = field ~path "payload" "counters" j in
    let* interned = int_field ~path "counters" "interned" cj in
    let* dedup = int_field ~path "counters" "dedup" cj in
    let* edges = int_field ~path "counters" "edges" cj in
    let* pruned_writes = int_field ~path "counters" "pruned_writes" cj in
    let* truncated_interns = int_field ~path "counters" "truncated_interns" cj in
    let* peak_frontier = int_field ~path "counters" "peak_frontier" cj in
    let* ample = int_field ~path "counters" "ample" cj in
    Ok
      {
        channel_bound;
        max_states;
        reduction;
        states;
        rows;
        frontier;
        pruned;
        truncated;
        counters =
          {
            interned;
            dedup;
            edges;
            pruned_writes;
            truncated_interns;
            peak_frontier;
            ample;
          };
      }

(* Read a framed file: verify magic, payload length, checksum; return the
   raw payload.  Shared by snapshots and job manifests (each with its own
   magic). *)
let read_framed ~magic path =
  let* raw =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> Ok s
    | exception Sys_error m -> Error (Io { path; message = m })
  in
  let* header, payload =
    match String.index_opt raw '\n' with
    | None ->
      Error (Bad_magic { path; found = String.sub raw 0 (min 64 (String.length raw)) })
    | Some i ->
      Ok (String.sub raw 0 i, String.sub raw (i + 1) (String.length raw - i - 1))
  in
  let* md5, expected =
    match String.split_on_char ' ' header with
    | [ m; md5; len ] when String.equal m magic -> (
      match int_of_string_opt len with
      | Some l when l >= 0 -> Ok (md5, l)
      | _ -> Error (Bad_magic { path; found = header }))
    | m :: _ when not (String.equal m magic) -> Error (Bad_magic { path; found = m })
    | _ -> Error (Bad_magic { path; found = header })
  in
  let got = String.length payload in
  if got <> expected then Error (Truncated { path; expected; got })
  else if not (String.equal (Digest.to_hex (Digest.string payload)) md5) then
    Error (Checksum_mismatch { path })
  else
    match Json.parse payload with
    | Ok j -> Ok j
    | Error m -> Error (Parse { path; context = "json"; message = m })

let load ~path inst =
  let* j = read_framed ~magic path in
  match decode path inst j with
  | (Ok _ | Error _) as r -> r
  | exception e ->
    (* Belt and braces: the decoder is total by construction, but a load
       must never raise. *)
    Error (Parse { path; context = "payload"; message = Printexc.to_string e })

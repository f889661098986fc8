type budget = Smoke | Default | Deep

let budgets = [ Smoke; Default; Deep ]
let budget_name = function Smoke -> "smoke" | Default -> "default" | Deep -> "deep"

type 'a codec = {
  magic : string;
  encode : 'a -> string list;
  decode : string list -> 'a option;
}

type 'a writer = {
  oc : out_channel;
  mu : Mutex.t;
  encode : 'a -> string list;
  flush_every : int;
  mutable since_flush : int;
}

let record_line fields = String.concat "\t" (List.map String.escaped fields) ^ "\n"

let parse_line line =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | f :: rest -> (
      match Scanf.unescaped f with f -> go (f :: acc) rest | exception _ -> None)
  in
  if line = "" then None else go [] (String.split_on_char '\t' line)

(* The decoded prefix of an existing journal, each record with its fields,
   or [] when the file is missing, unreadable, or written under another
   magic/fingerprint.  Reading stops at the partial trailing line a crash
   mid-append leaves, and at the first line that does not parse or decode:
   a resumed run may skip only work it has a complete, well-formed record
   for. *)
let load ~path ~magic ~fingerprint ~decode =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> []
  | contents -> (
    match String.split_on_char '\n' contents with
    | header :: body when header = magic ^ "\t" ^ fingerprint ->
      let rec complete acc = function
        | [] | [ _ ] -> List.rev acc (* last chunk: empty or partial *)
        | line :: rest -> (
          match parse_line line with
          | Some fs -> (
            match decode fs with
            | Some r -> complete ((fs, r) :: acc) rest
            | None -> List.rev acc)
          | None -> List.rev acc)
      in
      complete [] body
    | _ -> [])

let open_ c ~path ~fingerprint ~resume ~flush_every =
  let prior =
    if resume then load ~path ~magic:c.magic ~fingerprint ~decode:c.decode else []
  in
  (* Rewrite the compacted journal atomically before appending: this keeps
     only the decoded prefix, so appends always start at a line boundary,
     and a fresh open never leaves a stale journal behind. *)
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (c.magic ^ "\t" ^ fingerprint ^ "\n");
  List.iter (fun (fs, _) -> Buffer.add_string buf (record_line fs)) prior;
  Snapshot.write_atomic path (Buffer.contents buf);
  Snapshot.remove_stale_temps path;
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  let w =
    { oc; mu = Mutex.create (); encode = c.encode; flush_every = max 1 flush_every; since_flush = 0 }
  in
  (w, List.map snd prior)

let record w r =
  let line = record_line (w.encode r) in
  Mutex.lock w.mu;
  output_string w.oc line;
  w.since_flush <- w.since_flush + 1;
  if w.since_flush >= w.flush_every then begin
    w.since_flush <- 0;
    flush w.oc
  end;
  Mutex.unlock w.mu

let close w =
  Mutex.lock w.mu;
  (try close_out w.oc with Sys_error _ -> ());
  Mutex.unlock w.mu

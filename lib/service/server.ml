module Json = Engine.Metrics.Json

type config = { socket : string; store : Store.config; workers : int }

(* ------------------------------------------------------------------ *)

type client = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;  (** bytes read, possibly ending mid-line *)
  out : Buffer.t;  (** response bytes not yet written *)
  mutable closed : bool;
  mutable hangup : bool;  (** read no more; close once [out] is written *)
}

type state = {
  query : Query.t;
  jobs : Jobs.t;
  workers : int;
  clients : (Unix.file_descr, client) Hashtbl.t;
  subs : (string, (client * Json.v) list) Hashtbl.t;
      (** job id -> connections streaming its events, with the request id
          each used (echoed on every event line) *)
  mutable running : bool;
  chunk : Bytes.t;  (** the read buffer, shared: one read at a time *)
}

let subscribe st job_id c req_id =
  let cur = Option.value ~default:[] (Hashtbl.find_opt st.subs job_id) in
  if not (List.exists (fun (c', _) -> c' == c) cur) then
    Hashtbl.replace st.subs job_id ((c, req_id) :: cur)

let drop_client_subs st c =
  Hashtbl.filter_map_inplace
    (fun _ l ->
      match List.filter (fun (c', _) -> c' != c) l with
      | [] -> None
      | l -> Some l)
    st.subs

(* ------------------------------------------------------------------ *)
(* Request handling.  Each request becomes a thunk producing its
   response line(s); control thunks are cheap and run inline during
   collection, compute thunks are deferred so one select round's worth
   can be batched onto the pool. *)

type task = {
  t_client : client;
  t_slot : string ref;  (** the response line(s), filled by the thunk *)
  t_work : (unit -> string) option;  (** [Some] = deferred compute *)
}

(* Every deferred compute is wrapped here, once: whichever branch of
   [run_batch] runs it, a raise answers [Internal] under the request's own
   id instead of escaping the select loop. *)
let guard ~id work () =
  match work () with
  | line -> line
  | exception e -> Protocol.error_line ~id (Error.Internal (Printexc.to_string e))

let respond_result ~id = function
  | Ok (result, cached) -> Protocol.ok_line ~id ~cached result
  | Error e -> Protocol.error_line ~id e

let handle st c ({ id; req } : Protocol.envelope) =
  let immediate line = { t_client = c; t_slot = ref line; t_work = None } in
  let deferred work = { t_client = c; t_slot = ref ""; t_work = Some (guard ~id work) } in
  match req with
  | Protocol.Ping ->
    immediate (Protocol.ok_line ~id (Json.Obj [ ("pong", Json.Bool true) ]))
  | Protocol.Stats ->
    let stats =
      match Query.stats st.query with
      | Json.Obj fields ->
        Json.Obj
          (fields
          @ [ ("jobs_running", Json.Num (float_of_int (Jobs.running st.jobs))) ]
          )
      | j -> j
    in
    immediate (Protocol.ok_line ~id stats)
  | Protocol.Shutdown ->
    st.running <- false;
    immediate (Protocol.ok_line ~id (Json.Obj [ ("stopping", Json.Bool true) ]))
  | Protocol.Check { instance; model; config; fresh } ->
    deferred (fun () ->
        respond_result ~id (Query.check st.query ~instance ~model ~config ~fresh))
  | Protocol.Sweep { instance; models; config; fresh } ->
    deferred (fun () ->
        match Query.sweep st.query ~instance ~models ~config ~fresh with
        | Ok result -> Protocol.ok_line ~id result
        | Error e -> Protocol.error_line ~id e)
  | Protocol.Realize { source; target } ->
    deferred (fun () ->
        Protocol.ok_line ~id (Query.realize st.query ~source ~target))
  | Protocol.Bgp { nodes; seed; model; shards; fresh } ->
    deferred (fun () ->
        respond_result ~id (Query.bgp st.query ~nodes ~seed ~model ~shards ~fresh))
  | Protocol.Job_start { instance; model; config; every } -> (
    match Jobs.start st.jobs ~instance ~model ~config ~every with
    | Error e -> immediate (Protocol.error_line ~id e)
    | Ok (job, Some result) ->
      (* Already in the store: the "job" was a warm check. *)
      immediate
        (Protocol.ok_line ~id ~cached:true
           (Json.Obj [ ("job", Json.Str job); ("result", result) ]))
    | Ok (job, None) ->
      subscribe st job c id;
      immediate
        (Protocol.ok_line ~id
           (Json.Obj [ ("job", Json.Str job); ("state", Json.Str "running") ])))
  | Protocol.Job_status { job } ->
    immediate
      (match Jobs.status st.jobs ~id:job with
      | Ok s ->
        Protocol.ok_line ~id (Json.Obj [ ("job", Json.Str job); ("status", s) ])
      | Error e -> Protocol.error_line ~id e)
  | Protocol.Job_resume { job } -> (
    match Jobs.resume st.jobs ~id:job with
    | Error e -> immediate (Protocol.error_line ~id e)
    | Ok (Some result) ->
      immediate
        (Protocol.ok_line ~id ~cached:true
           (Json.Obj [ ("job", Json.Str job); ("result", result) ]))
    | Ok None ->
      subscribe st job c id;
      immediate
        (Protocol.ok_line ~id
           (Json.Obj [ ("job", Json.Str job); ("state", Json.Str "running") ])))

let run_batch st tasks =
  let deferred =
    Array.of_list
      (List.filter_map (fun t -> Option.map (fun w -> (t.t_slot, w)) t.t_work) tasks)
  in
  ignore
    (Engine.Pool.map (Engine.Pool.get ()) ~workers:st.workers
       (fun (slot, work) -> slot := work ())
       deferred
      : unit array);
  (* Arrival order per connection: tasks were collected in read order. *)
  List.iter (fun t -> Buffer.add_string t.t_client.out !(t.t_slot)) tasks

(* ------------------------------------------------------------------ *)
(* Job event streaming. *)

let dispatch_job_events st =
  List.iter
    (fun ev ->
      let job, fields, final =
        match ev with
        | Jobs.Progress { id; states } ->
          ( id,
            (fun req_id ->
              Protocol.event_line ~id:req_id ~event:"progress"
                [
                  ("job", Json.Str id);
                  ("states", Json.Num (float_of_int states));
                ]),
            false )
        | Jobs.Done { id; result } ->
          ( id,
            (fun req_id ->
              Protocol.event_line ~id:req_id ~event:"done"
                [ ("job", Json.Str id); ("result", result) ]),
            true )
        | Jobs.Failed { id; message } ->
          ( id,
            (fun req_id ->
              Protocol.event_line ~id:req_id ~event:"failed"
                [ ("job", Json.Str id); ("message", Json.Str message) ]),
            true )
      in
      (match Hashtbl.find_opt st.subs job with
      | None -> ()
      | Some subscribers ->
        List.iter
          (fun (c, req_id) ->
            if not c.closed then Buffer.add_string c.out (fields req_id))
          subscribers);
      if final then Hashtbl.remove st.subs job)
    (Jobs.poll st.jobs)

(* ------------------------------------------------------------------ *)
(* The event loop. *)

let close_client st c =
  if not c.closed then begin
    c.closed <- true;
    Hashtbl.remove st.clients c.fd;
    drop_client_subs st c;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* Only the newly read bytes are scanned: [pending] never holds a newline,
   so a line's head is in [pending] and the rest of it in [chunk]. *)
let split_lines pending chunk n =
  let rec newline i = if i >= n || Bytes.get chunk i = '\n' then i else newline (i + 1) in
  let rec go acc start =
    let i = newline start in
    if i >= n then begin
      Buffer.add_subbytes pending chunk start (n - start);
      List.rev acc
    end
    else if Buffer.length pending = 0 then
      go (Bytes.sub_string chunk start (i - start) :: acc) (i + 1)
    else begin
      Buffer.add_subbytes pending chunk start (i - start);
      let line = Buffer.contents pending in
      Buffer.clear pending;
      go (line :: acc) (i + 1)
    end
  in
  go [] 0

let max_line = 1 lsl 20

let read_tasks st c =
  let chunk = st.chunk in
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> []
  | exception Unix.Unix_error (_, _, _) ->
    close_client st c;
    []
  | 0 ->
    close_client st c;
    []
  | n ->
    let lines = split_lines c.inbuf chunk n in
    let error ~id e =
      { t_client = c; t_slot = ref (Protocol.error_line ~id e); t_work = None }
    in
    let tasks =
      List.filter_map
        (fun line ->
          if String.trim line = "" then None
          else
            match Protocol.of_line line with
            | Ok env -> Some (handle st c env)
            | Error (id, e) -> Some (error ~id e))
        lines
    in
    (* A pending line past the cap is no protocol request: answer once and
       hang up rather than buffer without limit. *)
    if Buffer.length c.inbuf <= max_line then tasks
    else begin
      Buffer.reset c.inbuf;
      c.hangup <- true;
      tasks
      @ [
          error ~id:Json.Null
            (Error.Usage (Printf.sprintf "request line longer than %d bytes" max_line));
        ]
    end

let flush_client st c =
  if Buffer.length c.out > 0 then begin
    let s = Buffer.contents c.out in
    match Unix.write_substring c.fd s 0 (String.length s) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> close_client st c
    | n ->
      Buffer.clear c.out;
      if n < String.length s then
        Buffer.add_substring c.out s n (String.length s - n)
  end

let run ?(on_ready = fun () -> ()) cfg =
  let ( let* ) = Result.bind in
  let* store = Store.open_ cfg.store in
  let* query = Query.create ~store ~workers:cfg.workers in
  let* jobs = Jobs.create ~store in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let bind_result =
    (* A stale socket file from a killed daemon would fail the bind. *)
    (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
    match
      Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket);
      Unix.listen listen_fd 64
    with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) ->
      Unix.close listen_fd;
      Error (Error.Io { path = cfg.socket; message = Unix.error_message e })
  in
  let* () = bind_result in
  (* A client gone mid-write must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let st =
    {
      query;
      jobs;
      workers = max 1 cfg.workers;
      clients = Hashtbl.create 16;
      subs = Hashtbl.create 7;
      running = true;
      chunk = Bytes.create 65536;
    }
  in
  on_ready ();
  while
    st.running
    || Hashtbl.fold (fun _ c acc -> acc || Buffer.length c.out > 0) st.clients false
  do
    let fds =
      Hashtbl.fold (fun fd c acc -> if c.hangup then acc else fd :: acc) st.clients []
    in
    let reads = if st.running then listen_fd :: fds else fds in
    let writes =
      Hashtbl.fold
        (fun fd c acc -> if Buffer.length c.out > 0 then fd :: acc else acc)
        st.clients []
    in
    match Unix.select reads writes [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> dispatch_job_events st
    | readable, writable, _ ->
      if st.running && List.memq listen_fd readable then begin
        match Unix.accept listen_fd with
        | fd, _ ->
          Unix.set_nonblock fd;
          Hashtbl.replace st.clients fd
            {
              fd;
              inbuf = Buffer.create 256;
              out = Buffer.create 256;
              closed = false;
              hangup = false;
            }
        | exception Unix.Unix_error (_, _, _) -> ()
      end;
      let tasks =
        List.concat_map
          (fun fd ->
            if fd == listen_fd then []
            else
              match Hashtbl.find_opt st.clients fd with
              | Some c -> read_tasks st c
              | None -> [])
          readable
      in
      run_batch st tasks;
      dispatch_job_events st;
      List.iter
        (fun fd ->
          match Hashtbl.find_opt st.clients fd with
          | Some c -> flush_client st c
          | None -> ())
        writable;
      (* Fresh output (batch responses, events) should not wait a select
         round: opportunistically try every client with pending bytes, and
         close hung-up clients whose answer is written.  (Snapshot the list
         first — closing a client mutates the table.) *)
      Hashtbl.fold (fun _ c acc -> c :: acc) st.clients []
      |> List.iter (fun c ->
             if Buffer.length c.out > 0 then flush_client st c;
             if c.hangup && Buffer.length c.out = 0 then close_client st c)
  done;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) st.clients;
  Unix.close listen_fd;
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  Ok ()

module Json = Engine.Metrics.Json

type t = { fd : Unix.file_descr; buf : Buffer.t; mutable timeout : float option }

let connect ~socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Ok { fd; buf = Buffer.create 256; timeout = None }
  | exception Unix.Unix_error (e, _, _) ->
    Unix.close fd;
    Error (Error.Io { path = socket; message = Unix.error_message e })

let set_timeout t s = t.timeout <- s
let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let io message = Error (Error.Io { path = "<daemon>"; message })

(* Whether the socket has bytes (or end of file) to read before the
   client's timeout, if it has one. *)
let rec readable t =
  match t.timeout with
  | None -> true
  | Some s -> (
    match Unix.select [ t.fd ] [] [] s with
    | [], _, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> readable t)

let read_line t =
  let chunk = Bytes.create 8192 in
  let rec take () =
    let s = Buffer.contents t.buf in
    match String.index_opt s '\n' with
    | Some i ->
      Buffer.clear t.buf;
      Buffer.add_substring t.buf s (i + 1) (String.length s - i - 1);
      Ok (String.sub s 0 i)
    | None when not (readable t) ->
      io (Printf.sprintf "no answer within %gs" (Option.get t.timeout))
    | None -> (
      match Unix.read t.fd chunk 0 (Bytes.length chunk) with
      | 0 -> io "connection closed"
      | n ->
        Buffer.add_subbytes t.buf chunk 0 n;
        take ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> take ()
      | exception Unix.Unix_error (e, _, _) -> io (Unix.error_message e))
  in
  take ()

let read_json t =
  match read_line t with
  | Error _ as e -> e
  | Ok line -> (
    match Json.parse line with
    | Ok j -> Ok j
    | Error m ->
      Error
        (Error.Corrupt { path = "<daemon>"; detail = "bad response line: " ^ m }))

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      match Unix.write fd b off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  match go 0 with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
    Error (Error.Io { path = "<daemon>"; message = Unix.error_message e })

let send_raw t s = write_all t.fd s

let is_event j = Json.member "event" j <> None

let request ?(on_event = fun _ -> ()) t env =
  match write_all t.fd (Json.to_string (Protocol.to_json env) ^ "\n") with
  | Error _ as e -> e
  | Ok () ->
    let rec next () =
      match read_json t with
      | Error _ as e -> e
      | Ok j ->
        if is_event j then begin
          on_event j;
          next ()
        end
        else Ok j
    in
    next ()

let wait_event t =
  match read_json t with
  | Error _ as e -> e
  | Ok j ->
    if is_event j then Ok j
    else
      Error
        (Error.Corrupt
           { path = "<daemon>"; detail = "expected an event line" })

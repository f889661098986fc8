(* Domain-safe counters and wall-clock timers for the hot paths.  All
   counters are atomics so explorer workers can bump them without locks;
   the phase list is the only mutex-protected piece. *)

type t = {
  states_interned : int Atomic.t;
  dedup_hits : int Atomic.t;
  edges : int Atomic.t;
  enumerations : int Atomic.t;
  pruned_writes : int Atomic.t;
  truncated_interns : int Atomic.t;
  ample_states : int Atomic.t;
  steps : int Atomic.t;
  messages : int Atomic.t;
  peak_frontier : int Atomic.t;
  fair_splits : int Atomic.t;
  fair_edges_scanned : int Atomic.t;
  domains : int Atomic.t;
  mu : Mutex.t;
  mutable phases : (string * float) list; (* reverse order of completion *)
  mutable downgrade : string option;
}

let create () =
  {
    states_interned = Atomic.make 0;
    dedup_hits = Atomic.make 0;
    edges = Atomic.make 0;
    enumerations = Atomic.make 0;
    pruned_writes = Atomic.make 0;
    truncated_interns = Atomic.make 0;
    ample_states = Atomic.make 0;
    steps = Atomic.make 0;
    messages = Atomic.make 0;
    peak_frontier = Atomic.make 0;
    fair_splits = Atomic.make 0;
    fair_edges_scanned = Atomic.make 0;
    domains = Atomic.make 1;
    mu = Mutex.create ();
    phases = [];
    downgrade = None;
  }

let add counter n = ignore (Atomic.fetch_and_add counter n)
let add_edges t n = add t.edges n
let add_enumerations t n = add t.enumerations n

(* Bulk variants: explorer workers count in domain-local buffers and merge
   once at join, so the hot path never touches these shared atomics. *)
let add_interned t n = add t.states_interned n
let add_dedup t n = add t.dedup_hits n
let add_pruned t n = add t.pruned_writes n
let add_truncated t n = add t.truncated_interns n
let add_ample t n = add t.ample_states n
let incr_steps t = add t.steps 1
let add_steps t n = add t.steps n
let add_messages t n = add t.messages n
let add_fair_splits t n = add t.fair_splits n
let add_fair_edges_scanned t n = add t.fair_edges_scanned n
let set_domains t n = Atomic.set t.domains n

let set_downgrade t reason =
  Mutex.lock t.mu;
  if t.downgrade = None then t.downgrade <- Some reason;
  Mutex.unlock t.mu

let downgrade t =
  Mutex.lock t.mu;
  let d = t.downgrade in
  Mutex.unlock t.mu;
  d

let observe_frontier t n =
  let rec bump () =
    let cur = Atomic.get t.peak_frontier in
    if n > cur && not (Atomic.compare_and_set t.peak_frontier cur n) then bump ()
  in
  bump ()

let states_interned t = Atomic.get t.states_interned
let dedup_hits t = Atomic.get t.dedup_hits
let edges t = Atomic.get t.edges
let enumerations t = Atomic.get t.enumerations
let pruned_writes t = Atomic.get t.pruned_writes
let truncated_interns t = Atomic.get t.truncated_interns
let ample_states t = Atomic.get t.ample_states
let steps t = Atomic.get t.steps
let messages t = Atomic.get t.messages
let peak_frontier t = Atomic.get t.peak_frontier
let fair_splits t = Atomic.get t.fair_splits
let fair_edges_scanned t = Atomic.get t.fair_edges_scanned
let domains t = Atomic.get t.domains

let add_phase t name secs =
  Mutex.lock t.mu;
  t.phases <- (name, secs) :: t.phases;
  Mutex.unlock t.mu

let phases t =
  Mutex.lock t.mu;
  let p = List.rev t.phases in
  Mutex.unlock t.mu;
  p

let phase_time t name =
  List.fold_left
    (fun acc (n, s) -> if String.equal n name then acc +. s else acc)
    0. (phases t)

let timed ?m name f =
  match m with
  | None -> f ()
  | Some t ->
    let t0 = Unix.gettimeofday () in
    Fun.protect ~finally:(fun () -> add_phase t name (Unix.gettimeofday () -. t0)) f

let dedup_rate t =
  let hits = dedup_hits t and fresh = states_interned t in
  let total = hits + fresh in
  if total = 0 then 0. else float_of_int hits /. float_of_int total

let states_per_sec t =
  let wall = phase_time t "explore" in
  if wall <= 0. then 0. else float_of_int (states_interned t) /. wall

(* ------------------------------------------------------------------ *)
(* Hand-rolled JSON (no external dep): emission plus a small parser used
   by the bench-smoke rule to validate emitted artifacts. *)

module Json = struct
  type v =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of v list
    | Obj of (string * v) list

  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let rec emit buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.0f" f)
      else Buffer.add_string buf (Printf.sprintf "%g" f)
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf v)
        vs;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          emit buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    emit buf v;
    Buffer.contents buf

  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else raise (Bad (Printf.sprintf "expected %c at %d" c !pos))
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else raise (Bad (Printf.sprintf "bad literal at %d" !pos))
    in
    let string_lit () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        if !pos >= n then raise (Bad "unterminated string")
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
            incr pos;
            (if !pos >= n then raise (Bad "unterminated escape")
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'
               | '\\' -> Buffer.add_char buf '\\'
               | '/' -> Buffer.add_char buf '/'
               | 'n' -> Buffer.add_char buf '\n'
               | 't' -> Buffer.add_char buf '\t'
               | 'r' -> Buffer.add_char buf '\r'
               | 'b' -> Buffer.add_char buf '\b'
               | 'f' -> Buffer.add_char buf '\012'
               | 'u' ->
                 if !pos + 4 >= n then raise (Bad "bad \\u escape");
                 let hex = String.sub s (!pos + 1) 4 in
                 (match int_of_string_opt ("0x" ^ hex) with
                 | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
                 | Some _ -> Buffer.add_char buf '?'
                 | None -> raise (Bad "bad \\u escape"));
                 pos := !pos + 4
               | c -> raise (Bad (Printf.sprintf "bad escape \\%c" c)));
            incr pos;
            loop ()
          | c ->
            Buffer.add_char buf c;
            incr pos;
            loop ()
      in
      loop ();
      Buffer.contents buf
    in
    let number () =
      let start = !pos in
      while
        !pos < n
        && match s.[!pos] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false
      do
        incr pos
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> raise (Bad (Printf.sprintf "bad number at %d" start))
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              incr pos;
              fields ((k, v) :: acc)
            | Some '}' ->
              incr pos;
              Obj (List.rev ((k, v) :: acc))
            | _ -> raise (Bad (Printf.sprintf "expected , or }} at %d" !pos))
          in
          fields []
        end
      | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              incr pos;
              items (v :: acc)
            | Some ']' ->
              incr pos;
              List (List.rev (v :: acc))
            | _ -> raise (Bad (Printf.sprintf "expected , or ] at %d" !pos))
          in
          items []
        end
      | Some '"' -> Str (string_lit ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> number ()
      | None -> raise (Bad "empty input")
    in
    match
      let v = value () in
      skip_ws ();
      if !pos <> n then raise (Bad (Printf.sprintf "trailing garbage at %d" !pos));
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg

  let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
end

let to_json t =
  Json.Obj
    [
      ("domains", Json.Num (float_of_int (domains t)));
      ("states_interned", Json.Num (float_of_int (states_interned t)));
      ("dedup_hits", Json.Num (float_of_int (dedup_hits t)));
      ("dedup_rate", Json.Num (dedup_rate t));
      ("edges", Json.Num (float_of_int (edges t)));
      ("enumerations", Json.Num (float_of_int (enumerations t)));
      ("pruned_writes", Json.Num (float_of_int (pruned_writes t)));
      ("truncated_interns", Json.Num (float_of_int (truncated_interns t)));
      ("ample_states", Json.Num (float_of_int (ample_states t)));
      ( "downgrade",
        match downgrade t with None -> Json.Null | Some r -> Json.Str r );
      ("steps", Json.Num (float_of_int (steps t)));
      ("messages", Json.Num (float_of_int (messages t)));
      ("peak_frontier", Json.Num (float_of_int (peak_frontier t)));
      ("fair_splits", Json.Num (float_of_int (fair_splits t)));
      ("fair_edges_scanned", Json.Num (float_of_int (fair_edges_scanned t)));
      ("states_per_sec", Json.Num (states_per_sec t));
      ( "phases",
        Json.Obj (List.map (fun (name, secs) -> (name, Json.Num secs)) (phases t)) );
    ]

let pp ppf t =
  Fmt.pf ppf
    "@[<v>states: %d (dedup hits %d, rate %.2f)@,\
     edges: %d; pruned writes: %d; truncated interns: %d@,\
     peak frontier: %d; domains: %d@,\
     states/sec: %.0f@,\
     phases: %a@]"
    (states_interned t) (dedup_hits t) (dedup_rate t) (edges t) (pruned_writes t)
    (truncated_interns t) (peak_frontier t) (domains t) (states_per_sec t)
    Fmt.(list ~sep:(any ", ") (fun ppf (n, s) -> Fmt.pf ppf "%s=%.3fs" n s))
    (phases t)

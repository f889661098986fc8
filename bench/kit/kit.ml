(* The bench kit: the plumbing every bench/ driver shares, written once:
   the flag table and its usage text, min-of-N timing, the artifact
   comparer and the exit codes.

   Exit codes: 0 the run completed and every requested gate held; 2 bad
   usage, or an input that is unreadable or was written by someone else;
   1 a failed gate.  Drivers raise a typed [failure]; [run] is the only
   place the codes are decided.

   Artifacts are declared as data ([artifact]).  Two artifacts agree when
   they are identical once every volatile field is blanked.  A field the
   declaration does not name means another (likely newer) writer, so it
   is an input error rather than a verdict. *)

module Json = Engine.Metrics.Json

type failure =
  | Usage of string  (** bad command line: message and usage text, exit 2 *)
  | Input of string  (** unreadable or foreign input: exit 2 *)
  | Gate of string option
      (** a gate failed: exit 1.  [None] when the failing path already
          printed its own diagnostics. *)

exception Fail of failure

let usagef fmt = Fmt.kstr (fun m -> raise (Fail (Usage m))) fmt
let inputf fmt = Fmt.kstr (fun m -> raise (Fail (Input m))) fmt
let gatef fmt = Fmt.kstr (fun m -> raise (Fail (Gate (Some m)))) fmt
let gate_failed () = raise (Fail (Gate None))

(* ------------------------------------------------------------------ *)
(* JSON in and out. *)

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> inputf "%s" e
  | text -> (
    match Json.parse text with
    | Ok v -> v
    | Error e -> inputf "%s does not parse: %s" path e)

(* Atomic, so a kill mid-write leaves the previous artifact intact; then
   the emitted text must re-parse and carry its "cases".  Returns the
   self-check's failures. *)
let write_artifact path json =
  let text = Json.to_string json in
  Engine.Snapshot.write_atomic path text;
  match Json.parse text with
  | Ok v when Json.member "cases" v <> None -> []
  | Ok _ -> [ "emitted JSON lacks a cases field" ]
  | Error e -> [ "emitted JSON does not parse: " ^ e ]

(* Replays every *.json corpus entry in [dir] through [check], which
   returns (ok, name, detail): one line per entry, a summary, and a failed
   gate if any entry failed. *)
let replay_dir dir check =
  let files =
    match Sys.readdir dir with
    | exception Sys_error e -> inputf "cannot read %s: %s" dir e
    | files ->
      List.sort String.compare
        (List.filter (fun f -> Filename.check_suffix f ".json") (Array.to_list files))
  in
  if files = [] then inputf "no corpus entries in %s" dir;
  let failed =
    List.fold_left
      (fun failed f ->
        let ok, name, detail = check (Filename.concat dir f) in
        Fmt.pr "%s %s: %s@." (if ok then "ok  " else "FAIL") name detail;
        if ok then failed else failed + 1)
      0 files
  in
  Fmt.pr "replayed %d corpus entries, %d failed@." (List.length files) failed;
  if failed > 0 then gate_failed ()

(* ------------------------------------------------------------------ *)
(* The comparer. *)

type artifact = {
  schema : string;  (** the top-level "schema" both artifacts must carry *)
  known_keys : string list;  (** every compared field, at any depth *)
  volatile_keys : string list;  (** fields blanked before comparing *)
  opaque_keys : string list;
      (** subtrees exempt from the unknown-key check (embedded copies of
          other artifacts, maps keyed by data); still compared *)
}

let index path i = Printf.sprintf "%s[%d]" path i
let find_mapi f l = Seq.find_map Fun.id (Seq.mapi f (List.to_seq l))

(* The path of the first field [a] does not declare, if any. *)
let first_unknown_key a v =
  let rec go path = function
    | Json.Obj fields ->
      List.find_map
        (fun (k, v) ->
          let here = path ^ "." ^ k in
          if List.mem k a.opaque_keys then None
          else if List.mem k a.known_keys || List.mem k a.volatile_keys then go here v
          else Some here)
        fields
    | Json.List l -> find_mapi (fun i v -> go (index path i) v) l
    | _ -> None
  in
  go "$" v

let rec scrub a = function
  | Json.Obj fields ->
    Json.Obj
      (List.map
         (fun (k, v) -> (k, if List.mem k a.volatile_keys then Json.Null else scrub a v))
         fields)
  | Json.List l -> Json.List (List.map (scrub a) l)
  | v -> v

(* The path of the first structural difference, for an actionable message. *)
let rec first_diff path a b =
  match (a, b) with
  | Json.Obj fa, Json.Obj fb ->
    if List.map fst fa <> List.map fst fb then Some (path ^ ": field sets differ")
    else
      Seq.find_map
        (fun ((k, va), (_, vb)) -> first_diff (path ^ "." ^ k) va vb)
        (Seq.zip (List.to_seq fa) (List.to_seq fb))
  | Json.List la, Json.List lb ->
    if List.compare_lengths la lb <> 0 then Some (path ^ ": list lengths differ")
    else find_mapi (fun i (va, vb) -> first_diff (index path i) va vb) (List.combine la lb)
  | a, b -> if a = b then None else Some path

let compare_ignoring_timings a path_a path_b =
  let prepare path =
    let v = load path in
    if Json.member "schema" v <> Some (Json.Str a.schema) then
      inputf "%s is not a %s artifact" path a.schema;
    (match first_unknown_key a v with
    | Some where ->
      inputf
        "%s has a field this comparer does not know at %s; extend known_keys or \
         volatile_keys before trusting the verdict"
        path where
    | None -> ());
    scrub a v
  in
  let va = prepare path_a in
  let vb = prepare path_b in
  match first_diff "$" va vb with
  | None -> Printf.printf "%s and %s are identical modulo timings\n" path_a path_b
  | Some where -> gatef "%s and %s differ at %s" path_a path_b where


(* ------------------------------------------------------------------ *)
(* Min-of-N.  Runs [f] [repeat] times and returns the fastest result with
   its wall time; min-of-N measures the code rather than the scheduler.
   Every repeat must agree with the first on [digest]: a difference is a
   determinism bug, so it fails the gate. *)

let best_of ~repeat ~digest what f =
  let timed () =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let best = ref (timed ()) in
  let first = lazy (digest (fst !best)) in
  for _ = 2 to repeat do
    let ((r, wall) as run) = timed () in
    if digest r <> Lazy.force first then gatef "nondeterministic repeat on %s" what;
    if wall < snd !best then best := run
  done;
  !best

(* ------------------------------------------------------------------ *)
(* The flag table.  A driver declares its flags as an [Arg] spec list
   built from the constructors below; [--help] prints the usage Arg
   generates from it, and every bad value is a [Usage] failure whose
   message is written here once. *)

type flag = Arg.key * Arg.spec * Arg.doc

let int_arg ?floor key s =
  match (int_of_string_opt s, floor) with
  | Some n, None -> n
  | Some n, Some f when n >= f -> n
  | _, None -> usagef "%s expects an int" key
  | _, Some f -> usagef "%s expects an int >= %d" key f

let int ?floor key r doc : flag = (key, Arg.String (fun s -> r := int_arg ?floor key s), doc)
let string key r doc : flag = (key, Arg.String (fun s -> r := Some s), doc)

(* A gate's threshold: unset means no gate, so only positive values. *)
let threshold key r doc : flag =
  ( key,
    Arg.String
      (fun s ->
        match float_of_string_opt s with
        | Some x when x > 0. -> r := Some x
        | _ -> usagef "%s expects a positive number" key),
    doc )

let choice key r name all doc : flag =
  let names = String.concat "|" (List.map name all) in
  ( key,
    Arg.String
      (fun s ->
        match List.find_opt (fun v -> name v = s) all with
        | Some v -> r := v
        | None -> usagef "unknown %s %S (%s)" (String.sub key 2 (String.length key - 2)) s names),
    Printf.sprintf "%s %s (default: %s)" names doc (name !r) )

(* The flags several drivers share. *)

let output r : flag =
  ( "-o",
    Arg.Set_string r,
    "FILE write the artifact to FILE" ^ if !r = "" then "" else Printf.sprintf " (default %s)" !r )

let budget r name all doc = choice "--budget" r name all doc
let repeat r = int ~floor:1 "--repeat" r "N run each case N times and keep the fastest (default 1)"
let min_speedup r doc = threshold "--min-speedup" r ("X " ^ doc)

let reduction r =
  choice "--reduction" r Modelcheck.Reduce.to_string
    Modelcheck.Reduce.[ No_reduction; Por; Sym ]
    "state-space reduction"

(* [auto] is the recommended domain count less one, at least [floor]. *)
let domains ~floor r : flag =
  ( "--domains",
    Arg.String
      (fun s ->
        if String.lowercase_ascii (String.trim s) = "auto" then
          r := Some (max floor (Modelcheck.Explore.auto_domains ()))
        else
          match int_of_string_opt s with
          | Some d when d >= floor -> r := Some d
          | _ -> usagef "--domains expects an int >= %d or \"auto\"" floor),
    Printf.sprintf "N|auto worker domains, at least %d (default: the DOMAINS env var)" floor )

type checkpoint = { path : string option; every : int; resume : bool }

(* The checkpoint triple.  [unit] names what [--checkpoint-every] counts;
   the returned function reads the parsed triple. *)
let checkpoint ~unit ~every =
  let path = ref None and every = ref every and resume = ref false in
  ( [
      string "--checkpoint" path "PATH checkpoint progress to PATH, so a killed run can resume";
      int ~floor:1 "--checkpoint-every" every
        (Printf.sprintf "N %s between checkpoints (default %d)" unit !every);
      ("--resume", Arg.Set resume, " resume from the --checkpoint PATH when it exists");
    ],
    fun () ->
      if !resume && !path = None then usagef "--resume requires --checkpoint PATH";
      { path = !path; every = !every; resume = !resume } )

(* Parses [args] against [flags].  Arg's own errors read "NAME: MESSAGE."
   followed by the usage; the MESSAGE becomes the [Usage] failure.
   [--help] escapes as [Arg.Help] with the generated usage. *)
let parse ?(header = "") name flags args =
  let argv = Array.of_list (name :: args) in
  try
    Arg.parse_argv ~current:(ref 0) argv (Arg.align flags)
      (fun a -> usagef "unexpected argument '%s'" a)
      header
  with Arg.Bad text ->
    let line = List.hd (String.split_on_char '\n' text) in
    let skip = String.length name + 2 in
    usagef "%s" (String.sub line skip (String.length line - skip - 1))

(* ------------------------------------------------------------------ *)
(* The runner.  With [flags] the command line is parsed against them
   first; without, it is not read (a forked child's runner).  With
   [artifact], `NAME --compare-ignoring-timings A B` is a terminal mode: it
   compares and exits, and runs nothing else. *)

let run ?artifact ?flags name main =
  let header =
    Printf.sprintf "usage: %s [OPTIONS]%s" name
      (if artifact = None then ""
       else
         Printf.sprintf
           "\n       %s --compare-ignoring-timings A B  (exit 0 iff A and B agree modulo timings)"
           name)
  in
  let main () =
    match (artifact, List.tl (Array.to_list Sys.argv)) with
    | Some a, [ "--compare-ignoring-timings"; path_a; path_b ] ->
      compare_ignoring_timings a path_a path_b
    | Some _, args when List.mem "--compare-ignoring-timings" args ->
      usagef "--compare-ignoring-timings expects exactly two artifact paths"
    | _, args ->
      Option.iter (fun flags -> parse ~header name flags args) flags;
      main ()
  in
  match main () with
  | () -> exit 0
  | exception Arg.Help usage ->
    print_string usage;
    exit 0
  | exception Fail f ->
    let code, message, hint =
      match f with
      | Usage m -> (2, Some m, flags <> None)
      | Input m -> (2, Some m, false)
      | Gate m -> (1, m, false)
    in
    Option.iter (Printf.eprintf "%s: %s\n%!" name) message;
    if hint then Printf.eprintf "run '%s --help' for the options\n%!" name;
    exit code

(* In-memory spans recorded by the benchmark around its calls into the
   library's public functions.  Nothing here reaches into the library:
   a span brackets one call from outside, so a layer's time is what its
   caller waits for.  Spans are kept in memory and written out once, when
   the run ends, so recording costs two clock reads and a cons. *)

module Json = Engine.Metrics.Json

type t = {
  id : int;
  name : string;  (** "<layer>.<operation>", e.g. "modelcheck.analyze" *)
  parent : int;  (** 0 for a root span *)
  req : int;  (** the request (unit of work) the span belongs to *)
  start : float;
  stop : float;
  alloc_words : float;  (** words allocated during the span (GC spans only) *)
  heap_growth_words : int;  (** top-heap growth across the span (GC spans only) *)
}

let enabled = ref false
let recorded : t list ref = ref []
let next_id = ref 0

(* The open spans, innermost first: (id, req). *)
let stack : (int * int) list ref = ref []

let now = Unix.gettimeofday

let allocated (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* [with_ name f] runs [f] inside a span.  [req] defaults to the
   enclosing span's request; [gc] also records the allocation and
   top-heap deltas around the call. *)
let with_ ?req ?(gc = false) name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent, parent_req =
      match !stack with (p, r) :: _ -> (p, r) | [] -> (0, 0)
    in
    let req = Option.value req ~default:parent_req in
    let gc0 = if gc then Some (Gc.quick_stat ()) else None in
    stack := (id, req) :: !stack;
    let start = now () in
    let finish () =
      let stop = now () in
      stack := List.tl !stack;
      let alloc_words, heap_growth_words =
        match gc0 with
        | None -> (0., 0)
        | Some g0 ->
          let g1 = Gc.quick_stat () in
          (allocated g1 -. allocated g0, g1.Gc.top_heap_words - g0.Gc.top_heap_words)
      in
      recorded :=
        { id; name; parent; req; start; stop; alloc_words; heap_growth_words }
        :: !recorded
    in
    Fun.protect ~finally:finish f
  end

let all () = List.rev !recorded
(* At the host's nominal speed, like every timing of the benchmark. *)
let duration s = Pace.elapsed s.start s.stop
let layer s = match String.index_opt s.name '.' with Some i -> String.sub s.name 0 i | None -> s.name

(* Self time: a span's duration minus the part of it its children cover
   (children of one span never overlap: the benchmark is sequential
   inside a unit of work). *)
let self_times spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)))
    spans

(* The spans below a root span named [root]. *)
let under root spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec root_of s =
    match Hashtbl.find_opt by_id s.parent with Some p -> root_of p | None -> s
  in
  List.filter (fun s -> s.parent <> 0 && (root_of s).name = root) spans

let sum_named spans name f =
  List.fold_left (fun acc s -> if s.name = name then acc +. f s else acc) 0. spans

let count_named spans name = List.length (List.filter (fun s -> s.name = name) spans)

(* The spans as a JSON array, times in seconds with all their digits. *)
let to_string spans =
  let one (s, self) =
    Printf.sprintf
      "{\"id\": %d, \"name\": %s, \"parent\": %d, \"req\": %d, \"start\": %.6f, \"end\": %.6f, \"self_s\": %.9f, \"alloc_words\": %.0f, \"heap_growth_words\": %d}"
      s.id (Json.to_string (Json.Str s.name)) s.parent s.req s.start s.stop self s.alloc_words
      s.heap_growth_words
  in
  "[" ^ String.concat ",\n" (List.map one (self_times spans)) ^ "]\n"

(* A span measured elsewhere (e.g. on another thread), added as a root. *)
let add ~name ~req ~start ~stop =
  if !enabled then begin
    incr next_id;
    recorded :=
      { id = !next_id; name; parent = 0; req; start; stop; alloc_words = 0.; heap_growth_words = 0 }
      :: !recorded
  end

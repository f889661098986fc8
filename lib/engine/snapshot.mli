(** Crash-safe checkpoints of an exploration in progress, plus the atomic
    file writer every committed artifact goes through.

    A snapshot captures the sequential explorer's full progress — the
    interned states (index = state id), the adjacency rows expanded so
    far, the frontier queue, the [pruned]/[truncated] flags and the
    {!Metrics} counters — in a versioned, digest-checksummed file written
    atomically (temp file + [Sys.rename]), so a kill, OOM or CI timeout
    mid-run never leaves a corrupt or half-written checkpoint behind.
    Resuming from the file reproduces the bit-identical graph an
    uninterrupted run would have produced (see
    {!Modelcheck.Explore.explore}).

    Routes are serialized {e structurally} (as node lists), not as
    {!Spp.Arena.id}s: arena ids are canonical only within a process, so
    the loader re-interns every path reachable from the snapshot into the
    resuming process's arena and rebuilds each state through the public
    {!State} API (digests are recomputed incrementally as always).  Node
    ids are used as-is, guarded by an instance fingerprint: loading a
    snapshot against a different instance is a typed error, not silent
    corruption.

    File layout (schema ["commrouting/snapshot/v2"], documented in
    EXPERIMENTS.md): one header line [<magic> <md5-hex> <payload-bytes>]
    followed by the JSON payload.  The loader verifies length and
    checksum before parsing, so truncation and bit-rot are rejected with
    a typed {!error} — never an [assert]/[failwith], never a half-loaded
    value.  v2 additionally records which state-space reduction produced
    the graph (resuming under a different reduction must be refused — the
    reduced graph is not a prefix of the unreduced one) and the
    reduction counters. *)

val magic : string
(** ["commrouting/snapshot/v2"]. *)

(** Why a checkpoint failed to load.  Every constructor carries the file
    path, so the offending artifact is identifiable from the rendered
    message alone. *)
type error =
  | Io of { path : string; message : string }
      (** the file cannot be read at all *)
  | Bad_magic of { path : string; found : string }
      (** not a snapshot file, or an unsupported schema version *)
  | Truncated of { path : string; expected : int; got : int }
      (** payload shorter (or longer) than the header promised *)
  | Checksum_mismatch of { path : string }
      (** payload bytes do not hash to the header's digest *)
  | Parse of { path : string; context : string; message : string }
      (** structurally invalid payload; [context] locates the field,
          e.g. ["states[12].chans[0]"] *)
  | Mismatch of { path : string; what : string; expected : string; got : string }
      (** a valid snapshot for the wrong instance or configuration *)

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

val write_atomic : string -> string -> unit
(** [write_atomic path contents] writes [contents] to
    [path ^ ".tmp.<pid>.<domain>.<seq>"], fsyncs it, renames it over
    [path], then fsyncs the containing directory (best effort), so
    concurrent readers (and any crash mid-write, or a power cut right
    after the call) see either the old complete file or the new complete
    file, never a prefix and never a hole.  The temp name is unique per
    writer — pid {e and} domain id {e and} a process-wide counter — so
    two domains of one process writing the same path cannot clobber each
    other's partial writes.  Raises [Sys_error] on I/O failure (the temp
    file is removed). *)

val remove_stale_temps : string -> unit
(** [remove_stale_temps path] removes the {!write_atomic} temp files of
    [path] that other processes left behind (a writer SIGKILLed before
    its rename).  Best effort: errors are ignored. *)

val mkdir_p : string -> unit
(** Creates a directory and its missing parents; an existing directory
    is fine.  Raises [Unix.Unix_error] when one cannot be made. *)

val framed : magic:string -> string -> string
(** [framed ~magic payload] is the checksummed on-disk framing every
    snapshot-format artifact uses: one header line
    [<magic> <md5-hex> <payload-bytes>] followed by the payload verbatim.
    {!read_framed} is its total inverse. *)

val read_framed : magic:string -> string -> (Metrics.Json.v, error) result
(** Read a {!framed} file: verify the magic, the promised payload length
    and the checksum, then parse the payload as JSON.  Total — any
    truncation, corruption or foreign file is a typed [Error]; nothing
    raises.  The building block for other framed stores (the query
    service's result cache among them). *)

val fingerprint : Spp.Instance.t -> string
(** Hex digest of the instance's names, destination, edges and ranked
    permitted paths; two instances with equal fingerprints serialize
    states identically. *)

(** {1 Exploration snapshots} *)

type label = {
  entry : Activation.t;
  l_reads : Channel.id list;
  l_drops : Channel.id list;
  l_cleans : Channel.id list;
}
(** An edge label: the activation entry plus the enumeration bookkeeping
    ({!Modelcheck.Enumerate.labeled} mirrored with engine-level types, so
    the engine does not depend on modelcheck). *)

type edge = { dst : int; label : label }

type counters = {
  interned : int;
  dedup : int;
  edges : int;
  pruned_writes : int;
  truncated_interns : int;
  peak_frontier : int;
  ample : int;  (** states expanded through a proper ample subset (POR) *)
}
(** The {!Metrics} counters accumulated by the exploration so far; restored
    into the resuming run's metrics so a resumed artifact is
    counter-identical to an uninterrupted one. *)

type t = {
  channel_bound : int;
  max_states : int;  (** the {!Modelcheck.Explore.config} in effect *)
  reduction : string;
      (** the {!Modelcheck.Reduce.t} that produced the graph, as its
          [to_string] form ("none", "por"); resuming under a
          different reduction is refused by the explorer *)
  states : State.t array;  (** every interned state, index = state id *)
  rows : (int * edge list) list;
      (** adjacency rows of the states expanded so far, newest first *)
  frontier : int list;  (** state ids still queued, front of the queue first *)
  pruned : bool;
  truncated : bool;
  counters : counters;
}

val save : path:string -> Spp.Instance.t -> t -> unit
(** Serialize, checksum and {!write_atomic}.  Raises [Sys_error] on I/O
    failure. *)

val load : path:string -> Spp.Instance.t -> (t, error) result
(** Read, verify magic + length + checksum, parse, validate against the
    instance's {!fingerprint}, and rebuild every state and label in the
    current process.  Total: any byte prefix or corruption of a valid
    file, and any well-formed snapshot of a different instance, is an
    [Error]; no exception escapes. *)

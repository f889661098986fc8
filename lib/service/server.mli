(** The query daemon: a single select-driven event loop serving the
    {!Protocol} over a Unix-domain socket.

    Connections are newline-delimited JSON, any number of clients.  Each
    select round drains every readable connection, then answers:
    control requests (ping, stats, job management, shutdown) inline;
    compute requests ([check]/[sweep]/[bgp]/[realize]) batched onto the
    {!Engine.Pool} — workers pull requests off an atomic index, results
    land in per-request slots, and responses are written back in arrival
    order, so each connection sees strict FIFO responses no matter how
    the batch interleaves.  Deep jobs run on their own domains
    ({!Jobs}); their progress/done events stream to the connection that
    started or resumed them, between that connection's other responses.

    Durability: the daemon can be SIGKILLed at any point.  The store
    only ever exposes complete entries (atomic, fsynced writes), and
    running jobs leave a manifest + checkpoint behind that a fresh
    daemon resumes to a bit-identical result. *)

type config = {
  socket : string;  (** path; unlinked on bind if stale, and on exit *)
  store : Store.config;
  workers : int;  (** pool fan-out for batched compute requests *)
}

val run : ?on_ready:(unit -> unit) -> config -> (unit, Error.t) result
(** Serves until a [shutdown] request; [on_ready] fires once the socket
    is listening (used by the forked test harnesses).  Returns typed
    errors for a bind failure, an unusable store directory, or a
    contradictory fact base — mapping them to exit codes is the
    caller's job. *)

val max_line : int
(** The longest pending request line a connection may hold (1 MiB).  A
    client that sends more without a newline gets one [Usage] error line,
    and the connection is closed. *)

(** {1 Pieces of the loop, exposed for tests} *)

val guard : id:Engine.Metrics.Json.v -> (unit -> string) -> unit -> string
(** [guard ~id work] runs [work]; if it raises, the answer is an
    [Internal] error line carrying [id].  Every deferred compute request is
    wrapped in it once, when its thunk is built. *)

val split_lines : Buffer.t -> Bytes.t -> int -> string list
(** [split_lines pending chunk n] appends the first [n] bytes of [chunk]
    to a connection's [pending] input and returns the complete lines, in
    order and without their newlines; the unfinished tail stays in
    [pending].  Only the new bytes are scanned, so a line delivered in many
    reads costs time linear in its length. *)

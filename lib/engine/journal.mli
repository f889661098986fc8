(** Append-only, crash-tolerant progress journals for resumable campaigns:
    the conformance sweep, the divergence hunt and the partitioned BGP
    sweep each journal one record per finished unit of work, so a killed
    run resumes at the first unit without a complete record.

    The file is one header line [<magic>\t<fingerprint>] followed by one
    record per line, its fields [String.escaped] and tab-separated.  A
    caller supplies only its {!codec} and a fingerprint of its
    configuration.  Loading applies one rule: it stops at the partial
    trailing line a crash mid-append leaves, and at the first line that
    does not parse or decode, and the journal is compacted to that decoded
    prefix.  A header with another magic or fingerprint discards the whole
    file, so a journal can make a resumed run skip work, never import
    results from a different configuration. *)

(** The campaign budgets of the hunt and the BGP sweep, whose journal
    fingerprints hash the budget name, so the type lives beside the
    journal; what each class spends is the campaign's choice.  The
    conformance sweep has no budget: it always checks every fact. *)
type budget = Smoke | Default | Deep

val budgets : budget list
val budget_name : budget -> string
(** ["smoke"], ["default"], ["deep"]. *)

type 'a codec = {
  magic : string;  (** the header's first field; names the record format *)
  encode : 'a -> string list;
  decode : string list -> 'a option;  (** [None] ends the loaded prefix *)
}

type 'a writer
(** Appends under a mutex, so pool workers can record concurrently. *)

val open_ :
  'a codec ->
  path:string ->
  fingerprint:string ->
  resume:bool ->
  flush_every:int ->
  'a writer * 'a list
(** Open [path] for journaling and return the records already journaled:
    with [resume] and a matching journal, its decoded prefix; otherwise
    none.  The file is first rewritten atomically to the header plus that
    prefix, and temp files that a killed writer of [path] left behind are
    removed ({!Snapshot.remove_stale_temps}).  [flush_every] is the number
    of records between flushes (clamped to >= 1); {!close} always
    flushes. *)

val record : 'a writer -> 'a -> unit
val close : 'a writer -> unit

(** Committed conformance corpus: JSON-serialized trials that
    {!replay} re-checks deterministically.

    A corpus entry is self-contained — it embeds the full instance (names,
    destination, edges, ranked permitted paths) and the literal activation
    entries, so replay does not depend on the seeded-RNG contract of
    {!Spp.Generator} (that contract is guarded by its own regression
    test).  Schema: ["commrouting/conformance/v1"], documented in
    EXPERIMENTS.md.

    Entries found by the fuzzer record the violation they witnessed
    ([expect = "violated:<kind>"]); once the engine is fixed the entry is
    flipped to [expect = "holds"] and committed as a regression. *)

module Json = Engine.Metrics.Json

val schema : string

type expect = Expect_holds | Expect_violated of Trial.violation

type case =
  | Positive of Trial.positive * expect
  | Negative_refutation of {
      inst_name : string;
      inst : Spp.Instance.t;
      non_realizer : Engine.Model.t;
      target_model : Engine.Model.t;  (** the model the witness runs under *)
      level : Realization.Relation.level;
      termination : Modelcheck.Refute.termination;
      witness : Engine.Activation.t list;
      channel_bound : int;
      max_states : int;  (** the exploration budget replay must honor *)
    }

type t = { name : string; case : case }

val positive : name:string -> expect:expect -> Trial.positive -> t

(** {1 JSON} *)

val str_field : string -> Json.v -> (string, string) result
val int_field : string -> Json.v -> (int, string) result

val model_field : string -> Json.v -> (Engine.Model.t, string) result
(** Field readers shared by every corpus schema; an error names the
    field. *)

val instance_to_json : Spp.Instance.t -> Json.v
val instance_of_json : Json.v -> (Spp.Instance.t, string) result
val entries_to_json : Spp.Instance.t -> Engine.Activation.t list -> Json.v

val entries_of_json :
  ?ctx:string -> Spp.Instance.t -> Json.v -> (Engine.Activation.t list, string) result
(** [ctx] (default ["entries"]) prefixes per-element error contexts, e.g.
    ["witness[3]: unknown node \"x\""]. *)

val to_json : t -> Json.v
val of_json : Json.v -> (t, string) result

(** {1 Files and replay}

    Every corpus schema (this one and {!Hunt.Corpus}'s) shares the file
    codec {!File}: one JSON document per file, ended by a newline. *)

type outcome = { name : string; ok : bool; detail : string }

module type ENTRY = sig
  type t

  val to_json : t -> Json.v
  val of_json : Json.v -> (t, string) result

  val replay : t -> outcome
  (** Re-runs the entry's check and compares with its expectation. *)
end

module File (E : ENTRY) : sig
  val save : string -> E.t -> unit
  (** Atomic (temp file + rename, {!Engine.Snapshot.write_atomic}): a
      crash mid-write never corrupts the artifact in place. *)

  val load : string -> (E.t, string) result
  (** Total, and strict: errors carry the file path (and the entry index
      for per-element failures), and any strict byte-prefix of a valid
      file — including the whole JSON body without its trailing newline —
      is an [Error], never a half-loaded entry. *)

  val emit : string -> string -> E.t -> string
  (** [emit dir name e] creates [dir] and its parents when missing, saves
      [e] to [dir/name.json] and returns that path.  Temp files a killed
      writer of that path left behind are removed. *)

  val replay_file : string -> outcome
  (** {!load} composed with [E.replay]; parse errors become failed
      outcomes. *)
end

val replay : t -> outcome
(** For a refutation entry, [Refute.Unknown] is a failure (the committed
    budget no longer suffices), never a pass. *)

val save : string -> t -> unit
val load : string -> (t, string) result
val emit : string -> string -> t -> string
val replay_file : string -> outcome
(** This schema's {!File} codec. *)

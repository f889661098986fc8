(** Committed counterexample corpus for the divergence hunt.

    A finding is a minimal (ddmin/surgery-shrunk) gadget together with the
    oscillation behavior the hunt recorded and the explorer budget it was
    established at.  Serialized as self-contained JSON, schema
    ["commrouting/hunt/v1"] (documented in EXPERIMENTS.md); instance
    serialization and the file codec ({!Conformance.Corpus.File}) are
    shared with the conformance corpus, so node references are by name.
    [results/hunt/*.json] is replayed deterministically by the
    [@hunt-smoke] alias on every test run: every committed gadget
    permanently grows the regression suite. *)

module Json = Engine.Metrics.Json

val schema : string

type kind =
  | Divergence of { model : Engine.Model.t }
      (** oscillates under [model]; no checked model definitively converges *)
  | Separation of {
      oscillates_in : Engine.Model.t;
      converges_in : Engine.Model.t;
    }
      (** the communication model makes the difference: a fair oscillation
          exists under one model while the other provably converges *)

type finding = {
  name : string;
  seed : int;  (** the generation seed of the originating candidate *)
  descr : string;  (** base instance + perturbation, human-readable *)
  inst : Spp.Instance.t;  (** already minimized *)
  kind : kind;
  channel_bound : int;
  max_states : int;  (** the exploration budget replay must honor *)
}

val kind_string : kind -> string
val pp_kind : Format.formatter -> kind -> unit

val to_json : finding -> Json.v
val of_json : Json.v -> (finding, string) result

type outcome = Conformance.Corpus.outcome = {
  name : string;
  ok : bool;
  detail : string;
}

val replay : finding -> outcome
(** Re-runs the recorded oscillation analyses at the recorded budget and
    compares with the finding's kind: a [Divergence] must still oscillate,
    a [Separation] must still oscillate under one model and definitively
    converge under the other. *)

val save : string -> finding -> unit
val load : string -> (finding, string) result
val emit : string -> string -> finding -> string
val replay_file : string -> outcome
(** The {!Conformance.Corpus.File} codec for findings. *)

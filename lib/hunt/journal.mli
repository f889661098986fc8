(** Per-candidate progress journal for a hunt: the {!codec} and
    fingerprint of an {!Engine.Journal}.

    One record per finished candidate, carrying the complete outcome (skip
    reason, per-model verdict names, and a finding's full JSON), so a
    SIGKILLed hunt resumed with [--resume] reconstructs every finished
    candidate — including its emitted corpus entries and the final
    artifact — without re-spending explorer budget.  {!Engine.Journal}
    decides what resumes: the records before the first torn, malformed or
    undecodable line, and nothing when the fingerprint (seeds, budget,
    models, bounds) differs. *)

type entry =
  | Skipped of { name : string; reason : string }
  | Explored of {
      name : string;
      verdicts : (Engine.Model.t * string) list;
          (** {!Modelcheck.Oscillation.verdict_name} per checked model *)
      finding : Corpus.finding option;
    }

val fingerprint :
  seeds:int ->
  budget:string ->
  models:Engine.Model.t list ->
  channel_bound:int ->
  max_states:int ->
  unit ->
  string

val codec : entry Engine.Journal.codec
(** Magic ["commrouting/hunt-journal/v1"]. *)

val entry_name : entry -> string

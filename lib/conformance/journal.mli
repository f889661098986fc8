(** The conformance sweep's progress journal: the {!codec} and fingerprint
    of an {!Engine.Journal}.

    A sweep is thousands of independent trials; each finished (fact, seed)
    trial is one record, so a killed run restarts at the
    first incomplete pair instead of from scratch:

    {v
    commrouting/journal/v1\t<fingerprint>
    P\t<trial index>\t<H|V>
    N\t<escaped negative name>\t<C|S\t<detail>|F\t<detail>>
    v}

    Positive trials journal only whether they held: a violated trial is
    re-checked on resume to regain the violation payload (re-checking a
    handful of violations is cheap next to the sweep).  Negative verdicts
    are journaled in full. *)

type entry =
  | Positive of { index : int; held : bool }
      (** index into {!Fuzz.trials} order, which is deterministic in
          [seeds] *)
  | Negative of { name : string; verdict : Trial.negative_verdict }
      (** keyed by {!Trial.negative_name} *)

val fingerprint : ?reduction:string -> seeds:int -> unit -> string
(** Digest of the sweep configuration and the fact-base shape; journals
    written under a different fingerprint are ignored on load. *)

val codec : entry Engine.Journal.codec
(** Magic ["commrouting/journal/v1"]. *)

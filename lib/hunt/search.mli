(** The hunt driver: perturbation candidates → static prefilter →
    per-model oscillation sweep → classification → shrink → corpus.

    Candidates run on the persistent {!Engine.Pool} ({!Engine.Pool.map});
    per-candidate explorations are forced sequential, so the
    parallelism budget is spent across candidates.  Every finished
    candidate is journaled with its complete outcome ({!Journal}), so a
    killed hunt resumed with the same configuration reconstructs an
    identical report without re-spending explorer budget. *)

val models : Engine.Journal.budget -> Engine.Model.t list
(** [Smoke]: 3 models (what [@hunt-smoke] runs); [Default]: the 12
    reliable models; [Deep]: all 24. *)

val explore_config : Engine.Journal.budget -> Modelcheck.Explore.config
(** [Smoke]: channel bound 3, 4k states; [Default]: 20k states; [Deep]:
    {!Modelcheck.Explore.default_config}. *)

type config = {
  seeds : int;  (** candidate batches; each seed yields a fixed-size batch *)
  budget : Engine.Journal.budget;
  domains : int;  (** pool workers checking candidates concurrently *)
  emit_dir : string option;
      (** where findings are serialized (atomically), when set *)
  journal : string option;  (** per-candidate progress journal path *)
  journal_every : int;  (** journal records between disk flushes (>= 1) *)
  resume : bool;
      (** prefill outcomes from an existing journal (same configuration
          only; a mismatched journal is discarded) *)
  log : string -> unit;
}

val default_config : config
(** 5 seeds, [Smoke] budget, {!Modelcheck.Explore.default_domains}
    domains, no emission, no journal, silent. *)

type status =
  | Skipped_static of string  (** {!Precheck.reason_string} *)
  | Explored of (Engine.Model.t * string) list
      (** {!Modelcheck.Oscillation.verdict_name} per checked model *)

type outcome = {
  name : string;
  seed : int;
  descr : string;
  status : status;
  finding : Corpus.finding option;  (** already minimized *)
  resumed : bool;  (** satisfied from the journal, no budget spent *)
}

type report = {
  seeds : int;
  budget : Engine.Journal.budget;
  checked_models : Engine.Model.t list;
  config : Modelcheck.Explore.config;
  outcomes : outcome list;  (** in candidate-generation order *)
}

val candidates_total : report -> int
val skipped_static : report -> int
val explored : report -> int
val findings : report -> Corpus.finding list
val resumed : report -> int

val skip_ratio : report -> float
(** Statically skipped / total; the acceptance gate requires >= 0.5. *)

val check_candidate :
  config:Modelcheck.Explore.config ->
  models:Engine.Model.t list ->
  Perturb.t ->
  outcome
(** One candidate through the whole pipeline (prefilter, sweep, classify,
    shrink), without journaling or emission. *)

val classify :
  (Engine.Model.t * Modelcheck.Oscillation.verdict) list -> Corpus.kind option
(** First oscillating model (paper order) decides; a definitive
    convergence elsewhere upgrades the divergence to a separation. *)

val keep_of_kind :
  config:Modelcheck.Explore.config -> Corpus.kind -> Spp.Instance.t -> bool
(** The shrinker's invariant: the instance still exhibits the recorded
    kind at the recorded budget. *)

val run : config -> report
val pp_report : Format.formatter -> report -> unit

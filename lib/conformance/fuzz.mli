(** The conformance fuzzing loop.

    Draws an instance pool — every fixed gadget of {!Spp.Gadgets} plus
    [seeds] generated instances from {!Spp.Generator} (configurations and
    RNG seeds derived deterministically from the seed index) — and crosses
    it with all positive facts of the Figures 3/4 matrices.  Each
    (instance, fact) pair becomes one {!Trial.positive} whose source
    schedule is a finite prefix of {!Engine.Scheduler.random} for the
    realized model, with a seed derived from the pair, so a whole run is
    reproducible from [--seeds] alone.

    Positive trials are embarrassingly parallel and checked on a small
    domain pool; violations are shrunk with {!Shrink} and optionally
    serialized to a corpus directory.  Every negative fact is then
    re-checked. *)

type config = {
  seeds : int;  (** number of generated instances joining the gadget pool *)
  domains : int;  (** worker domains for the positive sweep *)
  reduction : Modelcheck.Reduce.t;
      (** state-space reduction for the negative checks' explorations *)
  emit_dir : string option;
      (** where shrunk counterexamples are serialized, when set *)
  journal : string option;
      (** progress journal path: every finished trial is appended, so an
          interrupted sweep resumes at the first incomplete (fact, seed)
          pair — see {!Journal} *)
  journal_every : int;  (** journal records between disk flushes (>= 1) *)
  resume : bool;
      (** prefill verdicts from an existing journal at [journal] (same
          seeds, reduction and fact base; a mismatched journal is
          discarded) *)
  log : string -> unit;  (** progress/violation lines; [ignore] to silence *)
}

val default_config : config
(** 5 seeds, {!Modelcheck.Explore.default_domains}
    domains, no reduction, no emission, no journal, silent. *)

type negative_result = {
  neg : Trial.negative;
  verdict : Trial.negative_verdict;
}

type report = {
  positives_checked : int;
  positives_held : int;
  violations : (Trial.positive * Trial.violation) list;
      (** already shrunk to minimal counterexamples *)
  negatives : negative_result list;
  closure_contradiction : Realization.Closure.contradiction option;
      (** a contradictory fact base, reported as a finding rather than
          crashing the sweep *)
}

val instance_pool : seeds:int -> (string * Spp.Instance.t) list

val schedule :
  Spp.Instance.t ->
  Engine.Model.t ->
  seed:int ->
  len:int ->
  Engine.Activation.t list
(** A finite, model-legal, deterministic source schedule. *)

val trials : seeds:int -> Trial.positive list

val run : config -> report

val falsely_passed : report -> negative_result list
val skipped : report -> negative_result list

val ok : report -> bool
(** No violated positive fact, no falsely-passed negative fact, and no
    closure contradiction.  Skips do not fail the run (they are reported
    instead). *)

val pp_report : Format.formatter -> report -> unit

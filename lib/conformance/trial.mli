(** Differential conformance trials: one executable check per claim of the
    Figures 3/4 realization matrices.

    A {e positive} trial takes a positive fact (B realizes A at level l), a
    concrete instance and a finite A-legal activation sequence, transforms
    the sequence constructively with {!Realization.Transform}, runs both
    under {!Engine.Executor} and checks the induced path-assignment
    sequences with {!Realization.Seqcheck}.  Any failure along that
    pipeline — a missing or too-weak constructive route, an entry the
    source or target model rejects, a raised transform, or a violated
    trace relation — is a {!violation}: the symbolic fact base and the
    executable engine have drifted apart.

    A {e negative} trial re-checks a negative fact semantically, the way
    {!Modelcheck.Audit} does, but budgeted: realizability refutations go
    through {!Modelcheck.Refute} (an [Unknown] is a skip, never a pass)
    and oscillation separations through {!Modelcheck.Oscillation}. *)

(** {1 Positive trials} *)

type positive = {
  realizer : Engine.Model.t;  (** B, the model doing the realizing *)
  realized : Engine.Model.t;  (** A, the model being realized *)
  level : Realization.Relation.level;  (** the fact's claimed level *)
  source : string;  (** citation, e.g. "Thm. 3.5" *)
  inst_name : string;
  inst : Spp.Instance.t;
  entries : Engine.Activation.t list;  (** a finite A-legal schedule *)
}

val of_fact :
  Realization.Facts.positive ->
  inst_name:string ->
  Spp.Instance.t ->
  Engine.Activation.t list ->
  positive

type violation =
  | Route_missing  (** no constructive route for a proven fact *)
  | Route_too_weak  (** route level below the fact's claimed level *)
  | Source_entry_invalid of int  (** entry index illegal in the realized model *)
  | Target_entry_invalid of int  (** transformed entry illegal in the realizer *)
  | Relation_violated  (** Seqcheck rejected the trace relation *)
  | Transform_raised of string

val violation_name : violation -> string
(** Stable machine-readable tag, e.g. ["relation_violated"]. *)

val violation_of_name : string -> violation option
(** Inverse of {!violation_name} (payloads are defaulted). *)

val same_violation : violation -> violation -> bool
(** Constructor equality, ignoring payloads; the shrinker's invariant. *)

val pp_violation : Format.formatter -> violation -> unit

type verdict = Holds | Violated of violation

val force_routes : unit -> unit
(** Precompute the constructive route table.  Call once before checking
    trials from several domains: the table is built lazily and lazy forcing
    is not domain-safe. *)

val check_positive : positive -> verdict
(** The full differential pipeline described above.  The trace relation is
    checked at the {e route's} level (always at least the fact's level),
    the strongest sound oracle. *)

val pp_positive : Format.formatter -> positive -> unit

(** {1 Negative trials} *)

type negative_check =
  | Refutation of {
      inst_name : string;
      inst : Spp.Instance.t;
      witness : Engine.Activation.t list;
          (** the appendix execution, legal in the fact's target model *)
      level : Realization.Relation.level;
      termination : Modelcheck.Refute.termination;
    }
  | Separation of {
      inst_name : string;
      inst : Spp.Instance.t;
      oscillates_in : Engine.Model.t;
      scripted : (Engine.Activation.t list * Engine.Activation.t list) option;
          (** a concrete fair oscillation (prefix, cycle) of [oscillates_in],
              when exhaustively rediscovering one would be slow *)
    }

type negative = { fact : Realization.Facts.negative; check : negative_check }

val negatives : unit -> negative list
(** Every negative fact of {!Realization.Facts.negatives} paired with its
    semantic check. *)

type negative_verdict =
  | Confirmed  (** the engine agrees the realization is impossible *)
  | Skipped of string  (** bounded exploration was inconclusive *)
  | Falsely_passed of string
      (** the engine found behavior the fact rules out — semantic drift *)

val check_negative :
  ?reduction:Modelcheck.Reduce.t ->
  config:Modelcheck.Explore.config ->
  negative ->
  negative_verdict
(** [reduction] (default {!Modelcheck.Reduce.No_reduction}) is forwarded to
    the separation checks' explorations. *)

val negative_name : negative -> string
val pp_negative_verdict : Format.formatter -> negative_verdict -> unit

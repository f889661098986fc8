(** Self-audit: machine evidence for every foundational fact of Sec. 3.

    Each positive fact is re-checked by running its constructive transform
    on concrete schedules and testing the claimed trace relation; each
    negative fact is re-checked semantically on the paper's witness gadget
    (oscillation witnesses, exhaustive convergence, or realizability
    refutation).  The bench prints the resulting scoreboard; a clean audit
    means the fact base fed to the {!Realization.Closure} engine is not
    just transcribed from the paper but independently validated. *)

type status = Verified | Failed of string

type entry = { fact : string; evidence : string; status : status }

val positives : ?seeds:int list -> unit -> entry list
(** One entry per positive foundational fact: finds a constructive route
    of at least the claimed level and property-checks it on DISAGREE and
    FIG6 schedules. *)

val negatives : unit -> entry list
(** One entry per negative fact, including the two exhaustive checks of
    FIG6 under R1A and RMA (about 0.1 s and 0.3 s on a 2-vCPU host). *)

val summary : entry list -> string

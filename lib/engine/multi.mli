(** Multi-node activations (footnote 1, Ex. A.6, and Sec. 5 of the paper).

    The taxonomy of Sec. 2.2 fixes |U| = 1; these helpers lift a model's
    per-node dimensions to steps that activate several nodes at once, in
    the two regimes the paper names: every node per step (synchronous) and
    unrestricted non-empty sets.  The per-node checks and the synchronous
    schedule are the shared {!Model.validates_multi} and
    {!Scheduler.synchronous}, which any protocol reaches through its
    {!View}; this module applies them to an SPP instance. *)

type regime = Synchronous | Unrestricted

val validates : Spp.Instance.t -> regime -> Model.t -> Activation.t -> bool
(** Each active node's reads must satisfy the model's per-node neighbor and
    message dimensions; [Synchronous] additionally requires U = V. *)

val synchronous_polling : Spp.Instance.t -> Scheduler.t
(** The classic synchronous schedule: every step, every node polls all
    messages from all its channels (the multi-node REA).  Its rounds
    compute exactly the simultaneous best-response iteration of
    {!Spp.Solver.greedy}. *)

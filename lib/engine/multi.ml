type regime = Synchronous | Unrestricted

let validates inst regime model (entry : Activation.t) =
  Model.validates_multi (View.spp inst) model entry
  &&
  match regime with
  | Unrestricted -> entry.Activation.active <> []
  | Synchronous -> entry.Activation.active = Spp.Instance.nodes inst

let synchronous_polling inst =
  Scheduler.synchronous (View.spp inst) (Model.make Model.Reliable Model.N_every Model.M_all)

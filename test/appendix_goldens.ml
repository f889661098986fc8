(* Golden traces for the appendix executions (Ex. A.1-A.5): the scripted
   schedules of the paper's figures, printed as the appendix-style
   t / U(t) / pi tables.  The committed .expected file locks these traces;
   any engine change that alters them must be promoted deliberately
   (dune promote) and reviewed against the paper's tables. *)

open Engine

let model s = Option.get (Model.of_string s)
let single inst c reads = Activation.single (Spp.Gadgets.node inst c) reads

let read1 inst a b =
  Activation.read ~count:(Activation.Finite 1)
    (Channel.id ~src:(Spp.Gadgets.node inst a) ~dst:(Spp.Gadgets.node inst b))

(* One message from every in-channel: the REO entry shape. *)
let poll1 inst c =
  let v = Spp.Gadgets.node inst c in
  Activation.single v
    (List.map
       (fun ch -> Activation.read ~count:(Activation.Finite 1) ch)
       ((View.spp inst).required v))

let poll_all inst c = Activation.poll_all (View.spp inst) (Spp.Gadgets.node inst c)

let show name inst model_name entries =
  Fmt.pr "== %s under %s ==@." name model_name;
  List.iteri
    (fun i e ->
      if not (Model.validates (View.spp inst) (model model_name) e) then
        Fmt.pr "ILLEGAL ENTRY %d@." (i + 1))
    entries;
  Fmt.pr "%s@." (Trace.paper_table (Executor.run_entries inst entries))

let () =
  let disagree = Spp.Gadgets.disagree in
  show "DISAGREE (Ex. A.1, one oscillation period)" disagree "R1O"
    [
      single disagree 'd' [ read1 disagree 'x' 'd' ];
      single disagree 'x' [ read1 disagree 'd' 'x' ];
      single disagree 'y' [ read1 disagree 'd' 'y' ];
      single disagree 'x' [ read1 disagree 'y' 'x' ];
      single disagree 'y' [ read1 disagree 'x' 'y' ];
      single disagree 'x' [ read1 disagree 'd' 'x' ];
      single disagree 'y' [ read1 disagree 'd' 'y' ];
      single disagree 'd' [ read1 disagree 'x' 'd' ];
    ];
  let fig6 = Spp.Gadgets.fig6 in
  show "FIG6 (Ex. A.2, steps 1-13)" fig6 "REO"
    (List.map (poll1 fig6)
       [ 'd'; 'x'; 'a'; 'u'; 'v'; 'y'; 'a'; 'u'; 'v'; 'z'; 'a'; 'v'; 'u' ]);
  let fig7 = Spp.Gadgets.fig7 in
  show "FIG7 (Ex. A.3)" fig7 "REO"
    (List.map (poll1 fig7) [ 'd'; 'b'; 'u'; 'v'; 'a'; 'u'; 'v'; 's'; 's'; 's' ]);
  let fig8 = Spp.Gadgets.fig8 in
  show "FIG8 (Ex. A.4)" fig8 "REA"
    (List.map (poll_all fig8) [ 'd'; 'a'; 'u'; 'b'; 'u'; 's' ]);
  let fig9 = Spp.Gadgets.fig9 in
  show "FIG9 (Ex. A.5)" fig9 "REA"
    (List.map (poll_all fig9) [ 'd'; 'b'; 'c'; 'x'; 's'; 'a'; 'c'; 's' ])

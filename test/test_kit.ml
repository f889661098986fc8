(* The bench kit: the artifact comparer (scrubbing, the unknown-field
   check, difference paths, and which failures are input errors, exit 2,
   rather than failed gates, exit 1), the flag table and min-of-N. *)

module Json = Engine.Metrics.Json

let artifact =
  {
    Kit.schema = "test/v1";
    known_keys = [ "schema"; "cases"; "states"; "verdict" ];
    volatile_keys = [ "wall_s" ];
    opaque_keys = [ "baseline" ];
  }

let parse s =
  match Json.parse s with Ok v -> v | Error e -> Alcotest.failf "bad fixture %s: %s" s e

let json = Alcotest.testable (fun ppf v -> Fmt.string ppf (Json.to_string v)) ( = )
let path = Alcotest.(option string)

let case ?(wall = 1.5) ?(states = 7) () =
  Printf.sprintf {|{"states":%d,"verdict":"converges","wall_s":%g}|} states wall

let cases l = Printf.sprintf {|{"schema":"test/v1","cases":[%s]}|} (String.concat "," l)

let test_scrub () =
  let v = parse {|{"wall_s":1,"cases":[{"wall_s":2,"runs":[{"wall_s":3,"states":4}]}]}|} in
  Alcotest.check json "volatile fields are nulled at every depth"
    (parse
       {|{"wall_s":null,"cases":[{"wall_s":null,"runs":[{"wall_s":null,"states":4}]}]}|})
    (Kit.scrub artifact v)

let test_opaque () =
  let with_baseline b =
    parse (Printf.sprintf {|{"schema":"test/v1","cases":[],"baseline":%s}|} b)
  in
  let a = with_baseline {|{"mystery":{"deeper":1}}|} in
  Alcotest.check path "an opaque subtree skips the unknown-field check" None
    (Kit.first_unknown_key artifact a);
  Alcotest.check path "an unknown field outside it is found"
    (Some "$.cases[0].mystery")
    (Kit.first_unknown_key artifact (parse {|{"cases":[{"states":1,"mystery":2}]}|}));
  let b = with_baseline {|{"mystery":{"deeper":2}}|} in
  Alcotest.check path "an opaque subtree is still compared"
    (Some "$.baseline.mystery.deeper")
    (Kit.first_diff "$" (Kit.scrub artifact a) (Kit.scrub artifact b))

let test_first_diff () =
  let diff a b =
    Kit.first_diff "$" (Kit.scrub artifact (parse a)) (Kit.scrub artifact (parse b))
  in
  let four = List.init 4 (fun _ -> case ()) in
  Alcotest.check path "wall times are ignored" None
    (diff (cases four) (cases (List.init 4 (fun _ -> case ~wall:9. ()))));
  Alcotest.check path "a changed leaf is reported with its path" (Some "$.cases[3].states")
    (diff (cases four) (cases (List.filteri (fun i _ -> i < 3) four @ [ case ~states:8 () ])));
  Alcotest.check path "a field-set mismatch" (Some "$.cases[0]: field sets differ")
    (diff (cases [ case () ]) (cases [ {|{"states":7,"verdict":"converges"}|} ]));
  Alcotest.check path "a list-length mismatch" (Some "$.cases: list lengths differ")
    (diff (cases four) (cases [ case () ]))

let failure = function
  | Kit.Usage _ -> "usage"
  | Kit.Input _ -> "input"
  | Kit.Gate _ -> "gate"

let outcome f =
  match f () with () -> "ok" | exception Kit.Fail k -> failure k

let with_files contents k =
  let files =
    List.map
      (fun text ->
        let p = Filename.temp_file "kit" ".json" in
        Out_channel.with_open_bin p (fun oc -> output_string oc text);
        p)
      contents
  in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove files) (fun () -> k files)

let test_failures () =
  let compare a b () = Kit.compare_ignoring_timings artifact a b in
  let check what expected contents =
    with_files contents (function
      | [ a; b ] -> Alcotest.(check string) what expected (outcome (compare a b))
      | _ -> assert false)
  in
  let good = cases [ case () ] in
  Alcotest.(check string) "a missing file is an input error" "input"
    (outcome (fun () -> ignore (Kit.load "/nonexistent/kit-test.json")));
  check "identical modulo timings" "ok" [ good; cases [ case ~wall:3. () ] ];
  check "a parse error is an input error" "input" [ good; "{\"cases\":" ];
  check "a foreign schema is an input error" "input"
    [ good; {|{"schema":"other/v1","cases":[]}|} ];
  check "an unknown field is an input error" "input"
    [ good; {|{"schema":"test/v1","cases":[],"mystery":1}|} ];
  check "a semantic difference fails the gate" "gate" [ good; cases [ case ~states:8 () ] ]

(* ------------------------------------------------------------------ *)
(* The flag table. *)

let parse flags args () = Kit.parse "t" flags args

let test_flags () =
  let n = ref 0 in
  let table = [ Kit.int ~floor:1 "--n" n "N a count" ] in
  let check what expected args =
    Alcotest.(check string) what expected (outcome (parse table args))
  in
  check "a value at its floor" "ok" [ "--n"; "1" ];
  Alcotest.(check int) "it is stored" 1 !n;
  check "an unknown flag" "usage" [ "--m"; "1" ];
  check "a missing argument" "usage" [ "--n" ];
  check "a value below its floor" "usage" [ "--n"; "0" ];
  check "not an int" "usage" [ "--n"; "x" ];
  check "a stray argument" "usage" [ "x" ];
  let ck_flags, ck = Kit.checkpoint ~unit:"cases" ~every:1 in
  let checkpoint args () =
    Kit.parse "t" ck_flags args;
    ignore (ck ())
  in
  Alcotest.(check string) "--resume without --checkpoint" "usage"
    (outcome (checkpoint [ "--resume" ]));
  Alcotest.(check string) "--resume with --checkpoint" "ok"
    (outcome (checkpoint [ "--checkpoint"; "j"; "--resume" ]));
  Alcotest.(check string) "--checkpoint-every 0" "usage"
    (outcome (checkpoint [ "--checkpoint-every"; "0" ]))

let test_domains () =
  let domains floor args =
    let r = ref None in
    Kit.parse "t" [ Kit.domains ~floor r ] args;
    !r
  in
  Alcotest.(check (option int)) "auto is raised to the floor" (Some 1000)
    (domains 1000 [ "--domains"; "auto" ]);
  Alcotest.(check (option int)) "auto at floor 1"
    (Some (Modelcheck.Explore.auto_domains ()))
    (domains 1 [ "--domains"; "auto" ]);
  Alcotest.(check string) "a count below the floor" "usage"
    (outcome (fun () -> ignore (domains 2 [ "--domains"; "1" ])))

(* ------------------------------------------------------------------ *)
(* Min-of-N. *)

(* [f] returns its call number, sleeping on the calls in [slow]. *)
let counted ?(slow = []) () =
  let calls = ref 0 in
  ( calls,
    fun () ->
      incr calls;
      if List.mem !calls slow then Unix.sleepf 0.05;
      !calls )

let test_best_of () =
  let calls, f = counted ~slow:[ 1; 3 ] () in
  let best, wall = Kit.best_of ~repeat:3 ~digest:(fun _ -> "same") "case" f in
  Alcotest.(check int) "the fastest run is kept" 2 best;
  Alcotest.(check bool) "with its own wall time" true (wall < 0.05);
  Alcotest.(check int) "every repeat runs" 3 !calls;
  let calls, f = counted () in
  ignore (Kit.best_of ~repeat:1 ~digest:(fun _ -> assert false) "case" f);
  Alcotest.(check int) "repeat 1 runs once" 1 !calls;
  let _, f = counted () in
  Alcotest.(check string) "a differing repeat fails the gate" "gate"
    (outcome (fun () -> ignore (Kit.best_of ~repeat:2 ~digest:string_of_int "case" f)))

let () =
  Alcotest.run "kit"
    [
      ( "compare",
        [
          Alcotest.test_case "scrub nulls volatile keys at any depth" `Quick test_scrub;
          Alcotest.test_case "opaque subtrees" `Quick test_opaque;
          Alcotest.test_case "first_diff paths" `Quick test_first_diff;
          Alcotest.test_case "input errors are not gate failures" `Quick test_failures;
        ] );
      ( "flags",
        [
          Alcotest.test_case "bad values are usage failures" `Quick test_flags;
          Alcotest.test_case "--domains auto respects the floor" `Quick test_domains;
        ] );
      ("best_of", [ Alcotest.test_case "min-of-N" `Quick test_best_of ]);
    ]

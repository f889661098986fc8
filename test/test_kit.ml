(* The bench kit's artifact comparer: scrubbing, the unknown-field check,
   difference paths, and which failures are input errors (exit 2) rather
   than failed gates (exit 1). *)

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
    ]

(* The bench gate evaluator (Acfc_gate.Gate) over a synthetic gate
   file: every gate kind both ways, missing measurements, unparsable
   lines, ungated rows and ratio twins, the scaling skip and the
   family filter. *)

open Tutil
module Gate = Acfc_gate.Gate

let gates_file =
  {|# synthetic gates
ratio fast slow 10.0   # fails below 7x
abs fast 1000
alloc fast 2
regret tournament/mixed/LRU 3
ratio fleet-events/jobs4 fleet-events/jobs1 3.6
|}

let gates () =
  match Gate.parse gates_file with Ok g -> g | Error e -> Alcotest.fail e

let rate name ops words =
  { Gate.name; measure = Rate { ops_per_sec = ops; words_per_op = words } }

let regret name n = { Gate.name; measure = Regret n }

let all = [ "perf"; "tournament" ]

let status_of v subject detail_sub =
  match
    List.filter
      (fun (c : Gate.check) ->
        c.subject = subject && contains_sub ~sub:detail_sub c.detail)
      v.Gate.checks
  with
  | [ c ] -> c.status
  | l -> Alcotest.failf "%d checks for %s (%s)" (List.length l) subject detail_sub

let passing =
  [
    rate "fast" 8000.0 2.0;
    rate "slow" 1000.0 9.0;
    rate "fleet-events/jobs4" 1.0 0.0;
    rate "fleet-events/jobs1" 1.0 0.0;
    regret "tournament/mixed/LRU" 3;
  ]

let check_status =
  let pp ppf s =
    Format.pp_print_string ppf
      (match s with Gate.Pass -> "pass" | Fail -> "fail" | Skip -> "skip")
  in
  check (Alcotest.testable pp ( = ))

let kinds =
  [
    ("fast", "ratio");
    ("fast", "abs");
    ("fast", "alloc");
    ("tournament/mixed/LRU", "ceiling");
  ]

let test_kinds_pass_and_fail () =
  let v = Gate.evaluate ~cores:2 ~families:all (gates ()) passing in
  List.iter
    (fun (subject, detail) ->
      check_status (subject ^ " passes") Gate.Pass (status_of v subject detail))
    kinds;
  chk_bool "verdict passes" true (Gate.conclude Format.str_formatter v);
  let failing =
    [
      rate "fast" 600.0 2.5;
      rate "slow" 100.0 9.0;
      rate "fleet-events/jobs4" 1.0 0.0;
      rate "fleet-events/jobs1" 1.0 0.0;
      regret "tournament/mixed/LRU" 4;
    ]
  in
  let v = Gate.evaluate ~cores:8 ~families:all (gates ()) failing in
  List.iter
    (fun (subject, detail) ->
      check_status (subject ^ " fails") Gate.Fail (status_of v subject detail))
    kinds;
  chk_bool "verdict fails" false (Gate.conclude Format.str_formatter v)

let test_missing_measurement_fails () =
  let rows =
    List.filter
      (fun (r : Gate.row) -> r.name <> "slow" && r.name <> "tournament/mixed/LRU")
      passing
  in
  let v = Gate.evaluate ~cores:8 ~families:all (gates ()) rows in
  check_status "ratio without its twin" Gate.Fail (status_of v "fast" "no measured row");
  check_status "ceiling without its row" Gate.Fail
    (status_of v "tournament/mixed/LRU" "no measured row")

let test_unparsable_rejected () =
  List.iter
    (fun line ->
      match Gate.parse ("abs fast 1\n" ^ line ^ "\n") with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error e -> chk_bool ("line number in " ^ e) true (contains_sub ~sub:"line 2" e))
    [
      "fast 10.0";
      "ratio fast 10.0";
      "abs fast lots";
      "alloc fast";
      "regret tournament/mixed/LRU 1.5";
      "regret mixed/LRU 1";
      "abs tournament/mixed/LRU 1";
    ]

let test_ungated_and_twins () =
  let rows = passing @ [ rate "stray" 1.0 1.0 ] in
  let v = Gate.evaluate ~cores:2 ~families:all (gates ()) rows in
  ignore (Format.flush_str_formatter ());
  check Alcotest.(list string) "only the stray row is ungated" [ "stray" ] v.ungated;
  chk_bool "the ratio twin counts as gated" false (List.mem "slow" v.ungated);
  chk_bool "conclude names it" true
    (Gate.conclude Format.str_formatter v
    && contains_sub ~sub:"ungated rows (measured, no gate): stray"
         (Format.flush_str_formatter ()))

let test_scaling_skip_and_families () =
  let v = Gate.evaluate ~cores:2 ~families:all (gates ()) passing in
  check_status "scaling ratio skipped below 4 cores" Gate.Skip
    (status_of v "fleet-events/jobs4" "cores");
  let v = Gate.evaluate ~cores:8 ~families:all (gates ()) passing in
  check_status "scaling ratio binds at 4+ cores" Gate.Fail
    (status_of v "fleet-events/jobs4" "ratio");
  let v =
    Gate.evaluate ~cores:2 ~families:[ "tournament" ] (gates ())
      [ regret "tournament/mixed/LRU" 0 ]
  in
  chk_int "only the tournament family's gates run" 1 (List.length v.checks);
  chk_int "read fails on a missing file" 1
    (match Gate.read "/nonexistent/gates.txt" with Error _ -> 1 | Ok _ -> 0)

let suites =
  [
    ( "bench.gate",
      [
        case "each kind passes and fails" test_kinds_pass_and_fail;
        case "a gate with no measurement fails" test_missing_measurement_fails;
        case "unparsable lines are rejected" test_unparsable_rejected;
        case "ungated rows are reported; ratio twins are gated" test_ungated_and_twins;
        case "scaling skip and family filter" test_scaling_skip_and_families;
      ] );
  ]

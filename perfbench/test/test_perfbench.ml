(* The benchmark's own arithmetic: order statistics, span self time, the
   ladder subtraction and the model-accuracy figure. *)

module Stats = Perfbench.Stats
module Spans = Perfbench.Spans
module Ladder = Perfbench.Ladder
module Accuracy = Perfbench.Accuracy
module Host = Perfbench.Host

let close msg expected actual = Alcotest.(check (float 1e-9)) msg expected actual

let test_median () =
  close "odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  close "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: empty list") (fun () ->
      ignore (Stats.median []))

(* Reference values from Python: statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let one_to_ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  let q1, q2, q3 = Stats.quartiles one_to_ten in
  close "q1 of 1..10" 2.75 q1;
  close "q2 of 1..10" 5.5 q2;
  close "q3 of 1..10" 8.25 q3;
  let q1, q2, q3 = Stats.quartiles [ 7.0; 1.0; 3.0 ] in
  close "q1 of 3" 1.0 q1;
  close "q2 of 3" 3.0 q2;
  close "q3 of 3" 7.0 q3;
  let q1, _, q3 = Stats.quartiles [ 10.0; 20.0 ] in
  close "q1 of 2 extrapolates" 7.5 q1;
  close "q3 of 2 extrapolates" 22.5 q3;
  close "spread of 1..10" ((8.25 -. 2.75) /. 5.5) (Stats.spread one_to_ten)

(* A clock that advances one second per reading. *)
let ticking () =
  let t = ref 0.0 in
  fun () ->
    let now = !t in
    t := now +. 1.0;
    now

let test_spans () =
  let s = Spans.create ~clock:(ticking ()) () in
  Spans.with_span s "workload" (fun () ->
      Spans.with_span s "cell" (fun () -> ());
      Spans.with_span s "cell" (fun () -> Spans.with_span s "run" (fun () -> ())));
  let all = Spans.spans s in
  let names = List.map (fun (x : Spans.span) -> x.name) all in
  Alcotest.(check (list string))
    "opening order" [ "workload"; "cell"; "cell"; "run" ] names;
  let find id = List.find (fun (x : Spans.span) -> x.id = id) all in
  (* Clock readings: workload 0..7, cell 1..2, cell 3..6, run 4..5. *)
  close "workload duration" 7.0 (Spans.duration (find 0));
  close "workload self" 3.0 (Spans.self_time all (find 0));
  close "second cell self" 2.0 (Spans.self_time all (find 2));
  close "leaf self" 1.0 (Spans.self_time all (find 3));
  Alcotest.(check (option int)) "parent" (Some 2) (find 3).parent;
  Alcotest.(check (list (pair string (float 1e-9))))
    "self by name"
    [ ("workload", 3.0); ("cell", 3.0); ("run", 1.0) ]
    (Spans.self_by_name all)

let test_overlapping_children () =
  let parent = { Spans.id = 0; name = "p"; parent = None; start = 0.0; stop = 10.0 } in
  let child id start stop = { Spans.id; name = "c"; parent = Some 0; start; stop } in
  let all = [ parent; child 1 1.0 4.0; child 2 3.0 6.0; child 3 9.0 12.0 ] in
  (* Covered: [1,6] and [9,10] = 6 s of the parent's 10. *)
  close "union of children" 4.0 (Spans.self_time all parent)

let test_ladder () =
  let machine = { Ladder.ns = 1_040_000.0; words = 111_000.0; refs = 1000 } in
  let core = { Ladder.ns = 240_000.0; words = 2_000.0; refs = 1000 } in
  let stack = Ladder.stack ~machine ~core in
  close "stack ns/ref" 800.0 (fst (Ladder.per_ref stack));
  close "stack words/ref" 109.0 (snd (Ladder.per_ref stack));
  close "stack + core = machine"
    (fst (Ladder.per_ref machine))
    (fst (Ladder.per_ref stack) +. fst (Ladder.per_ref core));
  let sum = Ladder.add machine machine in
  Alcotest.(check int) "add refs" 2000 sum.refs;
  close "empty rung" 0.0 (fst (Ladder.per_ref Ladder.zero))

(* Table 6, din at 6.4 MB: 2573 / 8888 = 0.289491…; cs1 at 16 MB:
   1141 / 1141 = 1. *)
let test_paper_io_err () =
  close "one cell" (Float.abs (0.3 -. (2573.0 /. 8888.0)))
    (Accuracy.paper_io_err [ ("din", 6.4, 0.3) ]);
  close "exact cell" 0.0 (Accuracy.paper_io_err [ ("cs1", 16.0, 1.0) ]);
  close "mean of two" (Float.abs (0.3 -. (2573.0 /. 8888.0)) /. 2.0)
    (Accuracy.paper_io_err [ ("din", 6.4, 0.3); ("cs1", 16.0, 1.0) ]);
  Alcotest.check_raises "unknown cell"
    (Invalid_argument "Accuracy: no Table 6 cell for read300 at 6.4 MB") (fun () ->
      ignore (Accuracy.paper_io_err [ ("read300", 6.4, 1.0) ]))

let test_host_scale () =
  let r = Host.reference_s in
  close "probe at reference speed" 0.02 (Host.scale ~before:r ~after:r 0.02);
  close "host twice as slow" 0.01 (Host.scale ~before:(2.0 *. r) ~after:(2.0 *. r) 0.02);
  close "mean of the two probes" 0.015 (Host.scale ~before:r ~after:(3.0 *. r) 0.03)

let test_host_normalise () =
  let r = Host.reference_s in
  let walls = Array.make 20 0.01 in
  let check msg expected actual =
    Alcotest.(check (array (float 1e-12))) msg expected actual
  in
  check "reference speed" walls (Host.normalise ~probes:(Array.make 20 r) walls);
  check "half speed" (Array.make 20 0.005)
    (Host.normalise ~probes:(Array.make 20 (2.0 *. r)) walls);
  (* One slow probe is outvoted by the ten around it. *)
  let probes = Array.make 20 r in
  probes.(7) <- 10.0 *. r;
  check "one outlier" walls (Host.normalise ~probes walls);
  (* A step in the host's speed after operation 9: each operation takes
     the speed of the side that holds 6 of the 11 probes around it. *)
  let probes = Array.init 20 (fun i -> if i < 10 then r else 2.0 *. r) in
  let n = Host.normalise ~probes walls in
  close "before the step" 0.01 n.(0);
  close "just before the step" 0.01 n.(9);
  close "just after the step" 0.005 n.(10);
  close "after the step" 0.005 n.(19);
  Alcotest.check_raises "lengths differ"
    (Invalid_argument "Host.normalise: one probe per operation") (fun () ->
      ignore (Host.normalise ~probes:[| r |] walls))

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "perfbench"
    [
      ("stats", [ case "median" test_median; case "quartiles" test_quartiles ]);
      ( "spans",
        [ case "self time" test_spans; case "overlap" test_overlapping_children ] );
      ("ladder", [ case "stack = machine - core" test_ladder ]);
      ("accuracy", [ case "paper_io_err" test_paper_io_err ]);
      ( "host",
        [ case "scale" test_host_scale; case "normalise" test_host_normalise ] );
    ]

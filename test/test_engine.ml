open Acfc_sim
open Tutil

let clock_starts_at_zero () =
  let e = Engine.create () in
  chk_float "t=0" 0.0 (Engine.now e)

let delay_advances_clock () =
  let finished = ref 0.0 in
  let e = Engine.create () in
  Engine.spawn e (fun () ->
      Engine.delay e 1.5;
      Engine.delay e 2.5;
      finished := Engine.now e);
  Engine.run e;
  chk_float "virtual time" 4.0 !finished

let zero_delay_is_immediate () =
  let e = Engine.create () in
  let steps = ref [] in
  Engine.spawn e (fun () ->
      steps := "a" :: !steps;
      Engine.delay e 0.0;
      steps := "b" :: !steps);
  Engine.run e;
  chk_bool "ran to completion" true (List.rev !steps = [ "a"; "b" ])

let negative_delay_rejected () =
  let e = Engine.create () in
  let raised = ref false in
  Engine.spawn e (fun () ->
      match Engine.delay e (-1.0) with
      | () -> ()
      | exception Invalid_argument _ -> raised := true);
  Engine.run e;
  chk_bool "rejected" true !raised

let event_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:3.0 (fun () -> log := 3 :: !log);
  Engine.schedule e ~at:1.0 (fun () -> log := 1 :: !log);
  Engine.schedule e ~at:2.0 (fun () -> log := 2 :: !log);
  Engine.run e;
  chk_bool "time order" true (List.rev !log = [ 1; 2; 3 ])

let fifo_for_simultaneous_events () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 10 do
    Engine.schedule e ~at:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  chk_bool "FIFO ties" true (List.rev !log = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ])

let past_scheduling_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~at:5.0 (fun () ->
      match Engine.schedule e ~at:1.0 ignore with
      | () -> Alcotest.fail "scheduled in the past"
      | exception Invalid_argument _ -> ());
  Engine.run e

let spawn_from_fiber () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      Engine.delay e 1.0;
      Engine.spawn e (fun () ->
          Engine.delay e 1.0;
          log := ("child", Engine.now e) :: !log);
      Engine.delay e 0.5;
      log := ("parent", Engine.now e) :: !log);
  Engine.run e;
  chk_bool "interleaving" true
    (List.rev !log = [ ("parent", 1.5); ("child", 2.0) ])

let suspend_resume () =
  let e = Engine.create () in
  let resume_cell = ref None in
  let finished = ref false in
  Engine.spawn e (fun () ->
      Engine.suspend e (fun resume -> resume_cell := Some resume);
      finished := true);
  Engine.schedule e ~at:7.0 (fun () ->
      match !resume_cell with Some r -> r () | None -> Alcotest.fail "no resume");
  Engine.run e;
  chk_bool "resumed" true !finished

let double_resume_rejected () =
  let e = Engine.create () in
  let resume_cell = ref None in
  Engine.spawn e (fun () -> Engine.suspend e (fun r -> resume_cell := Some r));
  Engine.schedule e ~at:1.0 (fun () ->
      let r = Option.get !resume_cell in
      r ();
      match r () with
      | () -> Alcotest.fail "double resume allowed"
      | exception Invalid_argument _ -> ());
  Engine.run e

let deadlock_detected () =
  let e = Engine.create () in
  Engine.spawn e ~name:"stuck-fiber" (fun () -> Engine.suspend e (fun _ -> ()));
  (match Engine.run e with
  | () -> Alcotest.fail "no deadlock raised"
  | exception Engine.Deadlock names ->
    chk_bool "names the fiber" true
      (String.length names > 0 && String.sub names 0 5 = "stuck"))

let no_deadlock_when_all_finish () =
  let e = Engine.create () in
  for _ = 1 to 5 do
    Engine.spawn e (fun () -> Engine.delay e 1.0)
  done;
  Engine.run e;
  chk_int "no live fibers" 0 (Engine.fiber_count e)

let run_until_stops () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:1.0 (fun () -> log := 1 :: !log);
  Engine.schedule e ~at:5.0 (fun () -> log := 5 :: !log);
  Engine.run_until e 3.0;
  chk_bool "only early event" true (!log = [ 1 ]);
  chk_float "clock at horizon" 3.0 (Engine.now e);
  Engine.run e;
  chk_bool "rest after" true (List.rev !log = [ 1; 5 ])

let exceptions_propagate () =
  let e = Engine.create () in
  Engine.spawn e (fun () ->
      Engine.delay e 1.0;
      failwith "boom");
  Alcotest.check_raises "escapes run" (Failure "boom") (fun () -> Engine.run e)

let events_counted () =
  let e = Engine.create () in
  Engine.spawn e (fun () -> Engine.delay e 1.0);
  Engine.run e;
  (* spawn event + resume event *)
  chk_int "events" 2 (Engine.events_processed e)

let many_fibers () =
  let e = Engine.create () in
  let done_count = ref 0 in
  for i = 1 to 1000 do
    Engine.spawn e (fun () ->
        Engine.delay e (float_of_int (i mod 17) /. 10.0);
        incr done_count)
  done;
  Engine.run e;
  chk_int "all finished" 1000 !done_count

(* {2 Fast-forwarded sleeps} *)

let sleep_across_horizon () =
  let e = Engine.create () in
  let woke = ref [] in
  Engine.spawn e (fun () ->
      Engine.delay e 1.0;
      woke := Engine.now e :: !woke;
      Engine.delay e 5.0;
      woke := Engine.now e :: !woke);
  Engine.run_until e 3.0;
  chk_bool "first sleep only" true (!woke = [ 1.0 ]);
  chk_float "stopped at the horizon" 3.0 (Engine.now e);
  chk_int "still live" 1 (Engine.fiber_count e);
  Engine.run_until e 10.0;
  chk_bool "finished on the next call" true (List.rev !woke = [ 1.0; 6.0 ]);
  chk_int "done" 0 (Engine.fiber_count e)

let queued_event_at_wake_time_first () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:2.0 (fun () -> log := "event" :: !log);
  Engine.spawn e (fun () ->
      Engine.delay e 2.0;
      log := "fiber" :: !log);
  Engine.run e;
  chk_bool "queued event first" true (List.rev !log = [ "event"; "fiber" ])

let fast_forward_counts_events () =
  (* Alone, the fiber's sleeps are fast-forwarded; beside a twin that
     wakes at the same instants, they are queued. Each sleep is one
     event either way. *)
  let sleeper e () =
    for _ = 1 to 3 do
      Engine.delay e 1.0
    done
  in
  let alone = Engine.create () in
  Engine.spawn alone (sleeper alone);
  Engine.run alone;
  chk_int "alone: spawn + 3 sleeps" 4 (Engine.events_processed alone);
  chk_float "alone: clock" 3.0 (Engine.now alone);
  let paired = Engine.create () in
  Engine.spawn paired (sleeper paired);
  Engine.spawn paired (sleeper paired);
  Engine.run paired;
  chk_int "paired: twice that" 8 (Engine.events_processed paired);
  (* A later event keeps the queue non-empty; still one event per sleep. *)
  let ahead = Engine.create () in
  Engine.schedule ahead ~at:100.0 ignore;
  Engine.spawn ahead (sleeper ahead);
  Engine.run ahead;
  chk_int "with a later event" 5 (Engine.events_processed ahead)

let nested_resume_not_fast_forwarded () =
  (* The event that resumes the fiber goes on running after the fiber
     sleeps, so the sleep must be queued, not fast-forwarded. *)
  let e = Engine.create () in
  let cell = ref None and seen = ref [] in
  Engine.spawn e (fun () ->
      Engine.suspend e (fun r -> cell := Some r);
      Engine.delay e 5.0;
      seen := ("fiber", Engine.now e) :: !seen);
  Engine.schedule e ~at:1.0 (fun () ->
      Option.get !cell ();
      seen := ("event", Engine.now e) :: !seen);
  Engine.run e;
  chk_bool "event still at its own instant" true
    (List.rev !seen = [ ("event", 1.0); ("fiber", 6.0) ])

let deadlock_names_every_fiber () =
  let e = Engine.create () in
  List.iter
    (fun name ->
      Engine.spawn e ~name (fun () ->
          Engine.delay e 1.0;
          Engine.suspend e (fun _ -> ())))
    [ "c-fiber"; "a-fiber"; "b-fiber" ];
  Engine.spawn e ~name:"finisher" (fun () -> Engine.delay e 2.0);
  match Engine.run e with
  | () -> Alcotest.fail "no deadlock raised"
  | exception Engine.Deadlock names ->
    Alcotest.(check string) "all stuck fibers, sorted" "a-fiber, b-fiber, c-fiber" names

let resume_twice_rejected () =
  (* The resume thunk scheduled as a whole event, then called again. *)
  let e = Engine.create () in
  let cell = ref None in
  Engine.spawn e (fun () ->
      Engine.suspend e (fun r ->
          cell := Some r;
          Engine.schedule e ~at:1.0 r);
      Engine.delay e 1.0);
  Engine.schedule e ~at:5.0 (fun () ->
      match Option.get !cell () with
      | () -> Alcotest.fail "second resume allowed"
      | exception Invalid_argument _ -> ());
  Engine.run e;
  (* A stale thunk must not wake a later suspension of the same fiber. *)
  let e = Engine.create () in
  let first = ref None and second = ref None in
  Engine.spawn e (fun () ->
      Engine.suspend e (fun r -> first := Some r);
      Engine.suspend e (fun r -> second := Some r));
  Engine.schedule e ~at:1.0 (fun () -> Option.get !first ());
  Engine.schedule e ~at:2.0 (fun () ->
      match Option.get !first () with
      | () -> Alcotest.fail "stale resume woke the fiber"
      | exception Invalid_argument _ -> Option.get !second ());
  Engine.run e;
  chk_int "finished" 0 (Engine.fiber_count e)

let suites =
  [
    ( "engine",
      [
        case "clock starts at zero" clock_starts_at_zero;
        case "delay advances clock" delay_advances_clock;
        case "zero delay" zero_delay_is_immediate;
        case "negative delay" negative_delay_rejected;
        case "event time order" event_time_order;
        case "FIFO ties" fifo_for_simultaneous_events;
        case "no scheduling in the past" past_scheduling_rejected;
        case "spawn from fiber" spawn_from_fiber;
        case "suspend/resume" suspend_resume;
        case "double resume rejected" double_resume_rejected;
        case "deadlock detection" deadlock_detected;
        case "clean termination" no_deadlock_when_all_finish;
        case "run_until" run_until_stops;
        case "exception propagation" exceptions_propagate;
        case "event counting" events_counted;
        case "1000 fibers" many_fibers;
        case "sleep across a run_until horizon" sleep_across_horizon;
        case "queued event at the wake time runs first" queued_event_at_wake_time_first;
        case "fast-forwarded sleeps count as events" fast_forward_counts_events;
        case "nested resume is not fast-forwarded" nested_resume_not_fast_forwarded;
        case "deadlock names every blocked fiber" deadlock_names_every_fiber;
        case "resume twice or stale rejected" resume_twice_rejected;
      ] );
  ]

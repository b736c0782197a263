(* The acfc benchmark: one workload per invocation, end-to-end metrics
   from untraced timed passes (--trace 0) or per-layer metrics from one
   traced walk down the layer ladder (--trace 1). Either way the
   simulated outputs are checked, and the last line of standard output
   is one JSON object:

     {"correct": …, "attempted": …, "failed": …, "metrics": {…}}

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--digests FILE] [--out DIR]
          main.exe --print-digests --workload NAME --seed N *)

module W = Workloads
module L = Layers
module Stats = Perfbench.Stats
module Spans = Perfbench.Spans
module Ladder = Perfbench.Ladder
module Accuracy = Perfbench.Accuracy
module Host = Perfbench.Host
module Scenario = Acfc_scenario.Scenario
module Fleet = Acfc_fleet.Fleet
module Policy_sim = Acfc_replacement.Policy_sim

let setup_repeats = 15

(* {2 Correctness bookkeeping} *)

type tally = { mutable attempted : int; mutable failed : int }

let judge tally ok what =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    prerr_endline ("perfbench: FAILED " ^ what)
  end

(* Stored output digests, one line per operation: "seed workload op md5". *)
let load_digests path =
  let tbl = Hashtbl.create 1024 in
  if Sys.file_exists path then
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.iter (fun line ->
           match String.split_on_char ' ' line with
           | [ seed; workload; op; md5 ] ->
             Hashtbl.replace tbl (int_of_string seed, workload, op) md5
           | _ -> ());
  tbl

let digest_of s = Digest.to_hex (Digest.string s)

(* Each operation must have passed its own check and, where digests are
   stored for this seed, reproduce its digest byte for byte. *)
let check_ops tally ~digests ~seed ~workload ops =
  let known =
    Hashtbl.fold (fun (s, w, _) _ acc -> acc || (s = seed && w = workload)) digests false
  in
  List.iter
    (fun (o : W.op) ->
      let stored = Hashtbl.find_opt digests (seed, workload, o.op) in
      let ok = o.ok && ((not known) || stored = Some (digest_of o.output)) in
      judge tally ok (Printf.sprintf "%s %s: check or stored digest" workload o.op))
    ops

(* A cell's traced run must satisfy its invariants, reproduce the
   untraced run's output (tracing may not perturb the simulation) and,
   on a single-workload machine, demand exactly the stream its program
   fast-forwards to. *)
let check_cell tally ~untraced ~streams (c : W.cell) =
  let t = L.traced_run c.scn in
  List.iter (fun v -> prerr_endline ("perfbench: " ^ c.label ^ ": " ^ v)) t.violations;
  let same_output =
    Option.fold ~none:true ~some:(String.equal (W.runner_output t.result)) untraced
  in
  let same_demand = match streams with [ s ] -> s = t.demand | _ -> true in
  judge tally
    (t.violations = [] && same_output && same_demand)
    (c.label ^ ": traced run");
  t

let check_fleet_identity tally ~label ~jobs (reference : W.op) (other : W.op) =
  judge tally (reference.output = other.output)
    (Printf.sprintf "%s: fleet report at jobs %d differs from jobs 1" label jobs)

(* {2 Output} *)

let number v =
  if not (Float.is_finite v) then failwith "perfbench: non-finite metric";
  Printf.sprintf "%.17g" v

let print_result tally metrics =
  let metric (name, unit, value) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number value) unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.failed = 0) tally.attempted tally.failed
    (String.concat ", " (List.map metric metrics))

(* {2 Heap high-water mark}

   Sampled at the end of every major cycle during the first pass, and
   after it: set-up does not count, and a fixed amount of work makes the
   figure repeatable at a fixed seed. *)

let heap_peak = ref 0

let sample_heap () = heap_peak := Stdlib.max !heap_peak (Gc.quick_stat ()).heap_words

let heap_peak_mb () = float_of_int (!heap_peak * (Sys.word_size / 8)) /. 1048576.0

(* {2 Untraced run: end-to-end metrics} *)

let io_err ~seed (w : W.t) (first : W.pass) =
  let runs =
    if w.name = "paper-apps" then first.runs else (W.run_cells (W.paper_apps ~seed)).runs
  in
  Accuracy.paper_io_err (W.io_ratios runs)

(* Host seconds for one pass, each operation at its median over the
   timed passes. Every operation's time is at the probe's reference
   speed (see {!Perfbench.Host}), so the host's drifting load cancels;
   the median over the whole run drops what the probe misses. *)
let typical passes =
  let walls =
    List.map
      (fun (p : W.pass) -> Array.of_list (List.map (fun (o : W.op) -> o.wall) p.ops))
      passes
  in
  List.init
    (Array.length (List.hd walls))
    (fun i -> Stats.median (List.map (fun ws -> ws.(i)) walls))
  |> List.fold_left ( +. ) 0.0

let untraced ~name ~seed ~seconds ~digests =
  let tally = { attempted = 0; failed = 0 } in
  let start = L.now () in
  (* A set-up's seconds at reference speed, from probes around it. *)
  let setup () =
    let before = Host.probe () in
    let t0 = L.now () in
    let w = W.setup name ~seed in
    w.warm ();
    let wall = L.now () -. t0 in
    (w, Host.scale ~before ~after:(Host.probe ()) wall)
  in
  let w, first_setup = setup () in
  (* The first pass finishes the warm-up and gives the counts: minor
     words and the heap high-water mark, with no probe allocating
     beside it. It is not timed. *)
  heap_peak := 0;
  sample_heap ();
  let alarm = Gc.create_alarm sample_heap in
  let first, first_rung = L.measure ~refs:(fun (p : W.pass) -> p.refs) w.pass in
  sample_heap ();
  Gc.delete_alarm alarm;
  (* Timed passes until the time is up, with a probe after every
     operation. Between passes the workload is set up again, so the
     set-up times sample the run rather than its first instant. *)
  let rec loop passes setups =
    Host.start ();
    let pass = w.pass () in
    let probes = Host.stop () in
    let walls =
      Host.normalise ~probes (Array.of_list (List.map (fun (o : W.op) -> o.wall) pass.ops))
    in
    let pass =
      { pass with ops = List.mapi (fun i (o : W.op) -> { o with wall = walls.(i) }) pass.ops }
    in
    Printf.eprintf "perfbench: %s pass %d: %.0f refs/s at reference speed\n%!" name
      (List.length passes + 1)
      (float_of_int pass.refs /. typical [ pass ]);
    let setups =
      if List.length setups < setup_repeats then
        snd (setup ()) :: snd (setup ()) :: setups
      else setups
    in
    let passes = pass :: passes in
    if L.now () -. start < seconds then loop passes setups else (List.rev passes, setups)
  in
  let passes, setups = loop [] [ first_setup ] in
  check_ops tally ~digests ~seed ~workload:name first.ops;
  List.iter
    (fun (p : W.pass) ->
      List.iter2
        (fun (a : W.op) (b : W.op) ->
          judge tally (a.output = b.output) (a.op ^ ": pass differs from the first"))
        first.ops p.ops)
    passes;
  (* Invariants that need the tracer, on a traced re-run of every cell. *)
  let outputs =
    List.map (fun ((c : W.cell), r) -> (c.label, W.runner_output r)) first.runs
  in
  List.iter
    (fun (c : W.cell) ->
      let untraced = List.assoc_opt c.label outputs in
      ignore (check_cell tally ~untraced ~streams:(W.streams c.scn) c))
    w.cells;
  if name = "fleet-16" then begin
    let _, p1 = W.run_fleet ~jobs:1 (List.hd w.fleets) in
    check_fleet_identity tally ~label:name ~jobs:w.jobs (List.hd p1.ops)
      (List.hd first.ops)
  end;
  print_result tally
    [
      ("refs_per_s", "refs/s", float_of_int first.refs /. typical passes);
      ("words_per_ref", "words", snd (Ladder.per_ref first_rung));
      ("heap_peak_mb", "MB", heap_peak_mb ());
      ("setup_s", "s", Stats.median setups);
      ("paper_io_err", "ratio", io_err ~seed w first);
    ]

(* {2 Traced run: the per-layer ladder} *)

(* What the ladder walk accumulates over a workload's cells. *)
type ladder = {
  mutable build_s : float;
  mutable wir : Ladder.rung;
  mutable machine : Ladder.rung;
  mutable core : Ladder.rung;
  mutable traced_s : float;  (** wall of the traced machine runs *)
  mutable hits : int;
  mutable overrules : int;
  mutable placeholders : int;
  mutable events : int;
  mutable syscalls : int;
  mutable disk_ios : int;
  mutable disk_busy_s : float;
  mutable disk_wait_s : float;
  mutable rows : string list;  (** per-cell machine, core and stack ns, newest first *)
  policy : (string, Ladder.rung) Hashtbl.t;
  mutable fleet_epochs : int;
  mutable fleet_events : int;
  mutable fleet_requests : int;
  mutable fleet_wall1 : float;
  mutable fleet_walln : float;
}

let ratio a b = if b = 0.0 then 0.0 else a /. b

let write_lines path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

(* One cell down the ladder: build, IR, machine, traced machine, core
   replay. Returns the machine rung's operation and the recorded demand. *)
let walk_cell tally spans acc (c : W.cell) =
  let span name f = Spans.with_span spans name f in
  let t0 = L.now () in
  span "scenario.build" (fun () -> ignore (Scenario.build c.scn));
  acc.build_s <- acc.build_s +. (L.now () -. t0);
  let streams, wir =
    span "wir.references" (fun () ->
        L.measure
          ~refs:(List.fold_left (fun n s -> n + Array.length s) 0)
          (fun () -> W.streams c.scn))
  in
  acc.wir <- Ladder.add acc.wir wir;
  let r, m =
    span "scenario.run" (fun () ->
        L.measure ~refs:W.refs_of (fun () -> Scenario.run c.scn))
  in
  acc.machine <- Ladder.add acc.machine m;
  acc.hits <- acc.hits + r.cache_hits;
  acc.overrules <- acc.overrules + r.overrules;
  acc.placeholders <- acc.placeholders + r.placeholders_used;
  acc.events <- acc.events + r.engine_events;
  let output = W.runner_output r in
  let t =
    span "scenario.run.traced" (fun () ->
        check_cell tally ~untraced:(Some output) ~streams c)
  in
  acc.traced_s <- acc.traced_s +. t.wall_s;
  acc.syscalls <- acc.syscalls + t.syscalls;
  acc.disk_ios <- acc.disk_ios + t.disk_ios;
  acc.disk_busy_s <- acc.disk_busy_s +. t.disk_busy_s;
  acc.disk_wait_s <- acc.disk_wait_s +. t.disk_wait_s;
  let (), k =
    span "cache.replay" (fun () ->
        L.measure ~refs:(fun () -> m.refs) (fun () -> L.replay c.scn t.entries))
  in
  acc.core <- Ladder.add acc.core k;
  let s = Ladder.stack ~machine:m ~core:k in
  acc.rows <-
    Printf.sprintf "%s,%d,%.0f,%.0f,%.0f" c.label m.refs m.ns k.ns s.ns :: acc.rows;
  ({ W.op = c.label; output; ok = true; wall = m.ns /. 1e9 }, t.demand)

(* A source cell's recorded demand through every policy. *)
let walk_policies spans acc (c : W.cell) demand =
  let run pname f =
    let result, rung =
      Spans.with_span spans "policy_sim.run" (fun () ->
          L.measure ~refs:(fun (r, _) -> r.Policy_sim.references) f)
    in
    let prev = Option.value ~default:Ladder.zero (Hashtbl.find_opt acc.policy pname) in
    Hashtbl.replace acc.policy pname (Ladder.add prev rung);
    result
  in
  List.map snd
    (W.replay_stream ~app:c.apps ~capacity:c.scn.config.capacity_blocks ~run demand)

(* One fleet at jobs 1 and at the workload's jobs; returns the latter's
   operation. *)
let walk_fleet tally spans acc ~name ~jobs scn =
  let timed label jobs =
    let t0 = L.now () in
    let r, p = Spans.with_span spans label (fun () -> W.run_fleet ~jobs scn) in
    (r, List.hd p.W.ops, L.now () -. t0)
  in
  let _, o1, wall1 = timed "fleet.run.jobs1" 1 in
  let r, on, walln = timed "fleet.run.jobsN" jobs in
  check_fleet_identity tally ~label:name ~jobs o1 on;
  acc.fleet_wall1 <- acc.fleet_wall1 +. wall1;
  acc.fleet_walln <- acc.fleet_walln +. walln;
  acc.fleet_epochs <- acc.fleet_epochs + r.Fleet.epochs;
  acc.fleet_events <- acc.fleet_events + r.events;
  acc.fleet_requests <- acc.fleet_requests + r.server_requests;
  on

let ladder_metrics acc all =
  let per_ref f (r : Ladder.rung) = f (Ladder.per_ref r) in
  let refs = float_of_int acc.machine.refs in
  let stack = Ladder.stack ~machine:acc.machine ~core:acc.core in
  let cells = List.length (List.filter (fun (s : Spans.span) -> s.name = "cell") all) in
  let policy p =
    let pname = W.policy_name p in
    let r = Option.value ~default:Ladder.zero (Hashtbl.find_opt acc.policy pname) in
    let key = "policy." ^ String.lowercase_ascii pname in
    [
      (key ^ ".ns_per_ref", "ns", per_ref fst r);
      (key ^ ".words_per_ref", "words", per_ref snd r);
    ]
  in
  let epochs = float_of_int acc.fleet_epochs in
  [
    ("scenario.build_us", "us", acc.build_s /. float_of_int cells *. 1e6);
    ("wir.refs_per_s", "refs/s", float_of_int acc.wir.refs /. (acc.wir.ns /. 1e9));
    ("wir.words_per_ref", "words", per_ref snd acc.wir);
    ("machine.ns_per_ref", "ns", per_ref fst acc.machine);
    ("machine.words_per_ref", "words", per_ref snd acc.machine);
    ("core.replay_ns_per_ref", "ns", per_ref fst acc.core);
    ("core.replay_words_per_ref", "words", per_ref snd acc.core);
    ("stack.ns_per_ref", "ns", per_ref fst stack);
    ("stack.words_per_ref", "words", per_ref snd stack);
    ("core.hit_ratio", "ratio", float_of_int acc.hits /. refs);
    ("core.overrules_per_ref", "1/ref", float_of_int acc.overrules /. refs);
    ("core.placeholders_used", "count", float_of_int acc.placeholders);
    ("fs.syscalls_per_ref", "1/ref", float_of_int acc.syscalls /. refs);
    ("disk.ios_per_ref", "1/ref", float_of_int acc.disk_ios /. refs);
    ("disk.busy_s", "s", acc.disk_busy_s);
    ("disk.wait_s", "s", acc.disk_wait_s);
    ("sim.events_per_ref", "1/ref", float_of_int acc.events /. refs);
    ("sim.ns_per_event", "ns", ratio acc.machine.ns (float_of_int acc.events));
  ]
  @ List.concat_map policy Acfc_replacement.Policies.all
  @ [
      ("fleet.epochs", "count", epochs);
      ("fleet.events_per_epoch", "events", ratio (float_of_int acc.fleet_events) epochs);
      ("fleet.us_per_epoch", "us", ratio (acc.fleet_walln *. 1e6) epochs);
      ("fleet.scaling", "ratio", ratio acc.fleet_wall1 acc.fleet_walln);
      ("fleet.server_requests", "count", float_of_int acc.fleet_requests);
      ("trace_overhead", "ratio", ratio acc.traced_s (acc.machine.ns /. 1e9));
    ]
  @ List.map
      (fun (n, self) -> ("span." ^ n ^ ".self_s", "s", self))
      (Spans.self_by_name all)

let traced ~name ~seed ~digests ~out =
  let tally = { attempted = 0; failed = 0 } in
  let spans = Spans.create () in
  let span name f = Spans.with_span spans name f in
  let acc =
    {
      build_s = 0.0;
      wir = Ladder.zero;
      machine = Ladder.zero;
      core = Ladder.zero;
      traced_s = 0.0;
      hits = 0;
      overrules = 0;
      placeholders = 0;
      events = 0;
      syscalls = 0;
      disk_ios = 0;
      disk_busy_s = 0.0;
      disk_wait_s = 0.0;
      rows = [];
      policy = Hashtbl.create 16;
      fleet_epochs = 0;
      fleet_events = 0;
      fleet_requests = 0;
      fleet_wall1 = 0.0;
      fleet_walln = 0.0;
    }
  in
  span "workload" (fun () ->
      let w = span "setup" (fun () -> W.setup name ~seed) in
      (* Only the source cells' demand streams are kept for the policy
         rung. *)
      let walked =
        List.map
          (fun c ->
            let op, demand = span "cell" (fun () -> walk_cell tally spans acc c) in
            (op, if List.memq c w.sources then Some (c, demand) else None))
          w.cells
      in
      let policy_ops =
        List.concat_map
          (fun (_, source) ->
            Option.fold ~none:[] ~some:(fun (c, d) -> walk_policies spans acc c d) source)
          walked
      in
      let fleet_ops =
        List.map (walk_fleet tally spans acc ~name ~jobs:w.jobs) w.fleets
      in
      (* The operations the workload's own pass performs, checked
         against the stored digests. *)
      check_ops tally ~digests ~seed ~workload:name
        (match name with
        | "policy-replay" -> policy_ops
        | "fleet-16" -> fleet_ops
        | _ -> List.map fst walked));
  let all = Spans.spans spans in
  let file kind ext =
    Filename.concat out (Printf.sprintf "%s-%s-%d.%s" kind name seed ext)
  in
  write_lines (file "spans" "jsonl") (List.map Spans.to_json all);
  write_lines (file "ladder" "csv")
    ("cell,refs,machine_ns,core_ns,stack_ns" :: List.rev acc.rows);
  print_result tally (ladder_metrics acc all)

(* {2 Digest generation} *)

let print_digests ~name ~seed =
  let w = W.setup name ~seed in
  List.iter
    (fun (o : W.op) ->
      if not o.ok then failwith (o.op ^ ": check failed");
      Printf.printf "%d %s %s %s\n" seed name o.op (digest_of o.output))
    (w.pass ()).ops

let () =
  let workload = ref "" and seed = ref 7 and seconds = ref 30.0 and trace = ref 0 in
  let digests = ref "perfbench/digests.txt" and out = ref "." in
  let digest_mode = ref false in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " W.names );
      ("--seed", Arg.Set_int seed, "N workload seed (default 7)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed passes (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--digests", Arg.Set_string digests, "FILE stored output digests");
      ("--out", Arg.Set_string out, "DIR where a traced run writes spans and the ladder");
      ("--print-digests", Arg.Set digest_mode, " print this seed's digests and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload W.names) then begin
    prerr_endline
      ("perfbench: unknown workload " ^ !workload ^ "; expected "
      ^ String.concat ", " W.names);
    exit 2
  end;
  if !digest_mode then print_digests ~name:!workload ~seed:!seed
  else
    let digests = load_digests !digests in
    match !trace with
    | 0 -> untraced ~name:!workload ~seed:!seed ~seconds:!seconds ~digests
    | 1 -> traced ~name:!workload ~seed:!seed ~digests ~out:!out
    | n ->
      prerr_endline (Printf.sprintf "perfbench: --trace must be 0 or 1, not %d" n);
      exit 2

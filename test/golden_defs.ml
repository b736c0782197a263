(* The exact computations pinned by the golden snapshots under
   test/golden/. Shared by gen_golden.exe (which writes the snapshots)
   and test_golden.ml (which asserts the live system still reproduces
   them byte-for-byte), so the two can never drift apart. *)

open Acfc_experiments
module Obs = Acfc_obs
module Runner = Acfc_workload.Runner

let fig5 ~jobs () =
  Format.asprintf "%a" Multi.print
    (Multi.run ~jobs ~runs:2 ~sizes:[ 6.4 ] ~combos:[ [ "cs3"; "ldk" ] ] ())

let fig6 ~jobs () =
  Format.asprintf "%a" Alloc_lru.print
    (Alloc_lru.run ~jobs ~runs:2 ~sizes:[ 6.4 ] ~combos:[ [ "cs2"; "gli" ] ] ())

let criteria ~jobs () =
  Format.asprintf "%a" Criteria.print (Criteria.criterion3 ~jobs ~runs:1 ~apps:[ "din" ] ())

let metrics () =
  let sink = Obs.Sink.create ~backend:Obs.Sink.Null () in
  ignore
    (Acfc_scenario.Scenario.run_specs ~seed:7 ~obs:sink ~cache_blocks:128
       ~alloc_policy:Acfc_core.Config.Lru_sp
       [
         Runner.Spec.make ~smart:false ~disk:0
           (Acfc_workload.Readn.app ~n:60 ~mode:`Oblivious ());
       ]);
  Obs.Json.to_string
    (Obs.Metrics.snapshot (Obs.Sink.metrics sink) ~now:(Obs.Sink.now sink))
  ^ "\n"

(* The committed examples/scenarios/fleet_small.json: four client
   machines, two oblivious readN workloads each, the first one's file
   server-backed, over a 2 ms link. Small enough that the golden run is
   instant, busy enough that every path (local hit, local disk, server
   hit, server drive queue) is exercised. *)
let fleet_small () =
  Acfc_scenario.Scenario.make ~seed:11 ~cache_blocks:96
    ~fleet:
      (Acfc_scenario.Scenario.fleet ~shared_files:1 ~clients:4
         ~server_cache_blocks:64 ~latency_ms:2.0 ~bandwidth_mb_per_s:20.0 ())
    [
      Acfc_scenario.Scenario.workload ~smart:false ~disk:0 "read120";
      Acfc_scenario.Scenario.workload ~smart:false ~disk:0 "read80";
    ]

let fleet ~jobs () =
  Acfc_fleet.Fleet.to_string (Acfc_fleet.Fleet.run ~jobs (fleet_small ()))

(* The committed examples/scenarios/adaptive_arc.json: ARC installed as
   the first workload's live replacement manager through the unified
   policy core, next to an unmanaged workload sharing the cache. The
   golden pins the CLI output of `acfc-run scenario` on it, so the
   whole plug-in decision path (Control -> Acm -> Policy_core) is
   byte-stable. *)
let adaptive_arc_small () =
  Acfc_scenario.Scenario.make ~seed:13 ~cache_blocks:96
    [
      Acfc_scenario.Scenario.workload ~smart:false ~disk:0 ~manager:"arc"
        "read120";
      Acfc_scenario.Scenario.workload ~smart:false ~disk:0 "read80";
    ]

(* Byte-for-byte the output of [execute_scenario] in bin/acfc_run.ml. *)
let adaptive_arc () =
  let result = Acfc_scenario.Scenario.run (adaptive_arc_small ()) in
  Format.asprintf "%a" Runner.pp result
  ^ Format.asprintf
      "cache: %d hits, %d misses; %d overrules, %d placeholders (%d used)@."
      result.Runner.cache_hits result.Runner.cache_misses
      result.Runner.overrules result.Runner.placeholders_created
      result.Runner.placeholders_used

(* Byte-for-byte the output of `acfc-run policies -t PATTERN --capacity
   C` for every synthetic pattern at two capacities (default blocks and
   seed), concatenated: pins every core's miss count on five access
   patterns, at a small cache and at the CLI's default one. *)
let policies ~jobs () =
  let module Trace = Acfc_replacement.Trace in
  let module Policy_sim = Acfc_replacement.Policy_sim in
  String.concat ""
    (List.concat_map
       (fun capacity ->
         List.map
           (fun pattern ->
             let rng = Acfc_sim.Rng.create 0 in
             let trace = Trace.pattern ~rng ~blocks:1200 pattern in
             Format.asprintf "trace: %a@." Trace.pp_summary trace
             ^ String.concat ""
                 (List.map
                    (fun r -> Format.asprintf "%a@." Policy_sim.pp_result r)
                    (Acfc_par.Pool.map ~jobs
                       (fun policy -> Policy_sim.run policy ~capacity trace)
                       Acfc_policy.Registry.all)))
           Trace.patterns)
       [ 100; 819 ])

let snapshots ~jobs =
  [
    ("fig5_cs3_ldk.txt", fig5 ~jobs);
    ("fig6_cs2_gli.txt", fig6 ~jobs);
    ("criteria3_din.txt", criteria ~jobs);
    ("metrics_readn.json", fun () -> metrics ());
    ("fleet_small.txt", fleet ~jobs);
    ("adaptive_arc.txt", fun () -> adaptive_arc ());
    ("policies.txt", policies ~jobs);
  ]

(* The four benchmark workloads: their set-up, one timed pass, and the
   deterministic output of every operation a pass performs. *)

module Scenario = Acfc_scenario.Scenario
module Runner = Acfc_workload.Runner
module Wir = Acfc_wir.Wir
module Policy_sim = Acfc_replacement.Policy_sim
module Policies = Acfc_replacement.Policies
module Fleet = Acfc_fleet.Fleet
module Registry = Acfc_experiments.Registry
module Paper_data = Acfc_experiments.Paper_data

let names = [ "paper-apps"; "fig5-mixes"; "policy-replay"; "fleet-16" ]

(* One machine of a grid: what it runs, at which cache size, under
   which kernel. *)
type cell = { label : string; apps : string; mb : float; smart : bool; scn : Scenario.t }

(* One operation of a pass: its deterministic output, whether its own
   check held, and the host seconds it took. The operation is the unit
   the correctness check counts. *)
type op = { op : string; output : string; ok : bool; wall : float }

(* [f ()] and its host seconds; the host-speed probe, when it is on,
   runs after it. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let wall = Unix.gettimeofday () -. t0 in
  Perfbench.Host.tick ();
  (x, wall)

type pass = { refs : int; ops : op list; runs : (cell * Runner.t) list }

type t = {
  name : string;
  cells : cell list;  (** the machines the per-layer ladder walks *)
  sources : cell list;  (** whose demand streams feed the policy rung *)
  fleets : Scenario.t list;  (** what the fleet rung runs *)
  pass : unit -> pass;
  warm : unit -> unit;  (** a small slice of [pass], run once in set-up *)
  jobs : int;  (** worker domains of the fleet runs *)
}

let kernels = [ (`Original, false); (`Controlled, true) ]

let kernel_name smart = if smart then "lru-sp" else "global-lru"

let grid ~seed ~scenario keys =
  List.concat_map
    (fun (apps, key) ->
      List.concat_map
        (fun mb ->
          List.map
            (fun (kernel, smart) ->
              {
                label = Printf.sprintf "%s/%gMB/%s" apps mb (kernel_name smart);
                apps;
                mb;
                smart;
                scn = Scenario.inline_workloads (scenario ~mb ~kernel ~seed key);
              })
            kernels)
        Paper_data.cache_sizes_mb)
    keys

let refs_of (r : Runner.t) = r.cache_hits + r.cache_misses

let runner_output r = Format.asprintf "%a" Runner.pp r

let run_cells cells =
  let runs = List.map (fun c -> (c, timed (fun () -> Scenario.run c.scn))) cells in
  {
    refs = List.fold_left (fun acc (_, (r, _)) -> acc + refs_of r) 0 runs;
    ops =
      List.map
        (fun (c, (r, wall)) ->
          { op = c.label; output = runner_output r; ok = true; wall })
        runs;
    runs = List.map (fun (c, (r, _)) -> (c, r)) runs;
  }

(* The cells whose demand streams the policy rung replays: the smallest
   cache under the application-controlled kernel. *)
let smallest_smart cells =
  let mb = List.hd Paper_data.cache_sizes_mb in
  List.filter (fun c -> c.smart && c.mb = mb) cells

(* The fleet rung for a single-machine workload: the same machine as
   two clients sharing its first file through a server. *)
let as_fleet scn =
  {
    scn with
    Scenario.fleet =
      Some
        (Scenario.fleet ~shared_files:1 ~clients:2 ~server_cache_blocks:256
           ~latency_ms:50.0 ~bandwidth_mb_per_s:50.0 ());
  }

let machine_workload ~name ~jobs cells =
  let sources = smallest_smart cells in
  {
    name;
    cells;
    sources;
    fleets = List.map (fun c -> as_fleet c.scn) sources;
    pass = (fun () -> run_cells cells);
    warm = (fun () -> ignore (run_cells [ List.hd cells ]));
    jobs;
  }

let paper_apps ~seed =
  grid ~seed ~scenario:Acfc_experiments.Single.scenario
    (List.map (fun (name, _, _) -> (name, name)) Registry.apps)

let fig5_mixes ~seed =
  grid ~seed ~scenario:Acfc_experiments.Multi.scenario
    (List.map (fun names -> (Registry.combo_name names, names)) Registry.fig5_combos)

(* {2 policy-replay} *)

let policy_name p =
  let module P = (val p : Policy_sim.POLICY) in
  P.name

let program_of = function
  | { Scenario.app = Scenario.Inline p; _ } -> p
  | { Scenario.app = Scenario.Named name; _ } ->
    failwith (Printf.sprintf "perfbench: workload %s was not inlined" name)

(* The demand stream of every workload of a machine, exactly as its live
   run would draw it. *)
let streams scn =
  List.map2
    (fun w rng -> Wir.references ~rng (program_of w))
    scn.Scenario.workloads (Scenario.workload_rngs scn)

let replay_op ~app ~capacity trace p =
  let r, wall = timed (fun () -> Policy_sim.run p ~capacity trace) in
  ( r,
    {
      op = Printf.sprintf "%s/%s" app r.Policy_sim.policy;
      output = Printf.sprintf "%s %d %d" r.policy r.hits r.misses;
      ok = true;
      wall;
    } )

(* Every policy over one stream; no policy may miss less than OPT. *)
let replay_stream ~app ~capacity ?(run = fun _ f -> f ()) trace =
  let results =
    List.map
      (fun p -> run (policy_name p) (fun () -> replay_op ~app ~capacity trace p))
      Policies.all
  in
  let opt =
    List.find_map
      (fun (r, _) -> if r.Policy_sim.policy = "OPT" then Some r.misses else None)
      results
  in
  List.map
    (fun (r, o) ->
      match opt with
      | Some m when r.Policy_sim.misses >= m -> (r, o)
      | _ -> (r, { o with ok = false }))
    results

let replay_all ~capacity streams =
  let results =
    List.concat_map (fun (app, trace) -> replay_stream ~app ~capacity trace) streams
  in
  {
    refs = List.fold_left (fun acc (r, _) -> acc + r.Policy_sim.references) 0 results;
    ops = List.map snd results;
    runs = [];
  }

let policy_replay ~seed ~jobs =
  let cells = smallest_smart (paper_apps ~seed) in
  let capacity = Scenario.blocks_of_mb (List.hd Paper_data.cache_sizes_mb) in
  let streams = List.map (fun c -> (c.apps, List.hd (streams c.scn))) cells in
  {
    name = "policy-replay";
    cells;
    sources = cells;
    fleets = List.map (fun c -> as_fleet c.scn) cells;
    pass = (fun () -> replay_all ~capacity streams);
    warm =
      (fun () ->
        let app, trace = List.hd streams in
        let slice = Array.sub trace 0 (Array.length trace / 8) in
        ignore (replay_all ~capacity [ (app, slice) ]));
    jobs;
  }

(* {2 fleet-16} *)

(* Every client runs a cyclic scan of the one server-backed file, random
   reads over a local file larger than its cache share, and a local
   sequential scan, behind 50 ms links. *)
let fleet_scenario ~seed ~clients =
  let program name category size body =
    Wir.make ~name ~category (Wir.open_file ~name ~size_blocks:size () :: body)
  in
  let scan =
    program "shared" "cyclic" 192
      [ Wir.loop 12 [ Wir.read ~file:0 ~first:0 ~count:192 () ] ]
  and rand =
    program "rand" "hot/cold" 640
      [ Wir.loop 20_000 [ Wir.rand_read ~file:0 ~base:0 ~range:640 () ] ]
  and seq =
    program "seq" "cyclic" 512 [ Wir.loop 20 [ Wir.read ~file:0 ~first:0 ~count:512 () ] ]
  in
  Scenario.make ~seed ~cache_blocks:1024
    ~fleet:
      (Scenario.fleet ~shared_files:1 ~clients ~server_cache_blocks:256 ~latency_ms:50.0
         ~bandwidth_mb_per_s:50.0 ())
    (List.map (Scenario.inline_workload ~smart:false) [ scan; rand; seq ])

let fleet_refs (r : Fleet.report) =
  Array.fold_left
    (fun acc (c : Fleet.client_stats) -> acc + c.local_hits + c.local_misses)
    0 r.client_stats

let run_fleet ~jobs scn =
  let r, wall = timed (fun () -> Fleet.run ~jobs scn) in
  ( r,
    {
      refs = fleet_refs r;
      ops = [ { op = "fleet"; output = Fleet.to_string r; ok = true; wall } ];
      runs = [];
    } )

let fleet_16 ~seed ~jobs =
  let scn = fleet_scenario ~seed ~clients:16 in
  (* The ladder walks one client's machine on its own. *)
  let client =
    {
      label = "client";
      apps = "fleet-client";
      mb = 8.0;
      smart = false;
      scn = { scn with fleet = None };
    }
  in
  {
    name = "fleet-16";
    cells = [ client ];
    sources = [ client ];
    fleets = [ scn ];
    pass = (fun () -> snd (run_fleet ~jobs scn));
    warm = (fun () -> ignore (Fleet.run ~jobs (fleet_scenario ~seed ~clients:2)));
    jobs;
  }

let setup name ~seed =
  let jobs = Stdlib.min 2 (Domain.recommended_domain_count ()) in
  match name with
  | "paper-apps" -> machine_workload ~name ~jobs (paper_apps ~seed)
  | "fig5-mixes" -> machine_workload ~name ~jobs (fig5_mixes ~seed)
  | "policy-replay" -> policy_replay ~seed ~jobs
  | "fleet-16" -> fleet_16 ~seed ~jobs
  | _ ->
    invalid_arg
      (Printf.sprintf "unknown workload %S (expected one of: %s)" name
         (String.concat ", " names))

(* {2 Model accuracy} *)

(* (app, MB, LRU-SP/original block I/Os) for every cell pair of a
   Figure 4 grid run. *)
let io_ratios runs =
  let ios smart app mb =
    List.find_map
      (fun (c, r) ->
        if c.smart = smart && c.apps = app && c.mb = mb then Some r else None)
      runs
    |> Option.map (fun (r : Runner.t) -> float_of_int r.total_ios)
  in
  List.filter_map
    (fun (c, _) ->
      if not c.smart then None
      else
        match (ios true c.apps c.mb, ios false c.apps c.mb) with
        | Some controlled, Some original -> Some (c.apps, c.mb, controlled /. original)
        | _ -> None)
    runs

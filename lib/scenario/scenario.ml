open Acfc_sim
module Config = Acfc_core.Config
module Control = Acfc_core.Control
module Pid = Acfc_core.Pid
module Cache = Acfc_core.Cache
module Bus = Acfc_disk.Bus
module Disk = Acfc_disk.Disk
module Params = Acfc_disk.Params
module App = Acfc_workload.App
module Env = Acfc_wir.Env
module Runner = Acfc_workload.Runner
module Spec = Runner.Spec
module Json = Acfc_obs.Json
module Wir = Acfc_wir.Wir

type disk = { params : Params.t; sched : Disk.sched }

type source = Named of string | Inline of Wir.t

type workload = {
  app : source;
  smart : bool;
  disk : int;
  file_blocks : int option;
  manager : string option;
      (* registry name of a replacement policy run as this workload's
         live manager; None = kernel replacement (+ the app's own
         Advise calls when smart) *)
}

type obs_spec = { trace_path : string option; metrics_path : string option }

type link = { latency_ms : float; bandwidth_mb_per_s : float }

type fleet_server = { server_cache_blocks : int; server_drive : Params.t }

type fleet = {
  clients : int;
  shared_files : int;
  server : fleet_server;
  net : link;
  links : (int * link) list;
  lookahead_ms : float option;
}

type t = {
  seed : int;
  config : Config.t;
  update_interval : float;
  hit_cost : float option;
  io_cpu_cost : float option;
  write_cluster : int option;
  readahead : bool option;
  scattered_layout : bool;
  disks : disk list;
  workloads : workload list;
  fleet : fleet option;
  obs : obs_spec;
}

let default_disks =
  [ { params = Params.rz56; sched = Disk.Fcfs }; { params = Params.rz26; sched = Disk.Fcfs } ]

let no_obs = { trace_path = None; metrics_path = None }

let blocks_of_mb = Runner.blocks_of_mb

(* Shared by the constructors (invalid_arg) and the JSON parser
   ($.path error): a manager must name a registered policy that can run
   without the future stream. *)
let check_manager = function
  | None -> Ok ()
  | Some name ->
    (match Acfc_policy.Registry.find name with
    | Error msg -> Error msg
    | Ok entry ->
      if Acfc_policy.Registry.needs_future entry then
        Error
          (Printf.sprintf
             "policy %S needs the future reference stream and cannot run as a live \
              manager"
             (Acfc_policy.Registry.name entry))
      else Ok ())

let workload ?smart ?disk ?file_blocks ?manager app =
  (match check_manager manager with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Scenario.workload: " ^ msg));
  match Catalog.resolve ?file_blocks app with
  | Error msg -> invalid_arg ("Scenario.workload: " ^ msg)
  | Ok entry ->
    {
      app = Named app;
      smart = Option.value smart ~default:entry.Catalog.smart_default;
      disk = Option.value disk ~default:entry.Catalog.disk;
      file_blocks;
      manager;
    }

let inline_workload ?(smart = true) ?(disk = 0) ?manager program =
  (match check_manager manager with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Scenario.inline_workload: " ^ msg));
  (match Wir.validate program with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Scenario.inline_workload: " ^ msg));
  { app = Inline program; smart; disk; file_blocks = None; manager }

(* {2 Fleet} *)

let client_link f c =
  match List.assoc_opt c f.links with Some l -> l | None -> f.net

let fleet_min_latency_ms f =
  let m = ref Float.infinity in
  for c = 0 to f.clients - 1 do
    let l = (client_link f c).latency_ms in
    if l < !m then m := l
  done;
  !m

let fleet_lookahead_ms f =
  match f.lookahead_ms with
  | Some la -> la
  | None -> 2.0 *. fleet_min_latency_ms f

(* Semantic checks shared by [make] and the JSON parser. [Error (sub,
   msg)] carries the field sub-path relative to the fleet object, so
   the parser can turn it into a [$.fleet…] diagnostic. *)
let check_link_values sub l =
  if not (Float.is_finite l.latency_ms && l.latency_ms > 0.0) then
    Error (sub ^ ".latency_ms", "latency_ms must be > 0")
  else if not (Float.is_finite l.bandwidth_mb_per_s && l.bandwidth_mb_per_s > 0.0) then
    Error (sub ^ ".bandwidth_mb_per_s", "bandwidth_mb_per_s must be > 0")
  else Ok ()

let fleet_check f =
  let ( let* ) = Result.bind in
  let* () = if f.clients >= 1 then Ok () else Error (".clients", "clients must be >= 1") in
  let* () =
    if f.shared_files >= 0 then Ok ()
    else Error (".shared_files", "shared_files must be >= 0")
  in
  let* () =
    if f.server.server_cache_blocks >= 1 then Ok ()
    else Error (".server.cache_blocks", "cache_blocks must be >= 1")
  in
  let* () = check_link_values ".network" f.net in
  let* () =
    List.fold_left
      (fun acc (i, (c, l)) ->
        let* () = acc in
        let sub = Printf.sprintf ".links[%d]" i in
        let* () =
          if c >= 0 && c < f.clients then Ok ()
          else
            Error
              ( sub ^ ".client",
                Printf.sprintf "client index %d out of range (%d client%s)" c f.clients
                  (if f.clients = 1 then "" else "s") )
        in
        let* () =
          if List.length (List.filter (fun (c', _) -> c' = c) f.links) = 1 then Ok ()
          else Error (sub ^ ".client", Printf.sprintf "duplicate link for client %d" c)
        in
        check_link_values sub l)
      (Ok ())
      (List.mapi (fun i x -> (i, x)) f.links)
  in
  match f.lookahead_ms with
  | None -> Ok ()
  | Some la ->
    let bound = 2.0 *. fleet_min_latency_ms f in
    if not (Float.is_finite la && la > 0.0) then
      Error (".lookahead_ms", "lookahead_ms must be > 0")
    else if la > bound then
      Error
        ( ".lookahead_ms",
          Printf.sprintf
            "lookahead_ms %g exceeds the conservative bound %g (twice the minimum \
             link latency)"
            la bound )
    else Ok ()

let fleet ?(shared_files = 0) ?(links = []) ?lookahead_ms ?(server_drive = Params.rz56)
    ~clients ~server_cache_blocks ~latency_ms ~bandwidth_mb_per_s () =
  let f =
    {
      clients;
      shared_files;
      server = { server_cache_blocks; server_drive };
      net = { latency_ms; bandwidth_mb_per_s };
      links;
      lookahead_ms;
    }
  in
  match fleet_check f with
  | Ok () -> f
  | Error (sub, msg) -> invalid_arg (Printf.sprintf "Scenario.fleet: %s: %s" sub msg)

let make ?(seed = 0) ?(disks = default_disks) ?disk_sched ?(update_interval = 30.0)
    ?hit_cost ?io_cpu_cost ?write_cluster ?readahead ?(scattered_layout = false)
    ?revocation ?shared_files ?config ?(obs = no_obs) ?cache_blocks ?alloc_policy
    ?fleet workloads =
  let config =
    match (config, cache_blocks) with
    | Some _, Some _ ->
      invalid_arg "Scenario.make: pass cache_blocks or config, not both"
    | Some c, None ->
      if revocation <> None || shared_files <> None || alloc_policy <> None then
        invalid_arg "Scenario.make: pass cache knobs or a full config, not both"
      else c
    | None, Some capacity_blocks ->
      Config.make ?alloc_policy ?revocation ?shared_files ~capacity_blocks ()
    | None, None -> invalid_arg "Scenario.make: cache_blocks (or config) is required"
  in
  let disks =
    match disk_sched with
    | None -> disks
    | Some sched -> List.map (fun d -> { d with sched }) disks
  in
  if disks = [] then invalid_arg "Scenario.make: no disks";
  if workloads = [] then invalid_arg "Scenario.make: no workloads";
  List.iter
    (fun w ->
      if w.disk < 0 || w.disk >= List.length disks then
        invalid_arg "Scenario.make: disk index out of range")
    workloads;
  (match fleet with
  | None -> ()
  | Some f ->
    (match fleet_check f with
    | Ok () -> ()
    | Error (sub, msg) ->
      invalid_arg (Printf.sprintf "Scenario.make: fleet%s: %s" sub msg)));
  {
    seed;
    config;
    update_interval;
    hit_cost;
    io_cpu_cost;
    write_cluster;
    readahead;
    scattered_layout;
    disks;
    workloads;
    fleet;
    obs;
  }

(* {2 Machine assembly}

   This is the historical [Runner.run] body, moved here wholesale. The
   order of every [Rng.split] and [Engine.spawn] is load-bearing: it is
   what keeps scenario-built runs bit-identical to the pre-scenario
   code (and to the golden snapshots). Do not reorder. *)

type machine = {
  engine : Engine.t;
  bus : Bus.t;
  disk_array : Disk.t array;
  cpu : Resource.t;
  fs : Acfc_fs.Fs.t;
  cache : Cache.t;
  rng : Rng.t;
}

let assemble ?tracer ?obs ~seed ~disks ~update_interval:_ ~hit_cost ~io_cpu_cost
    ~write_cluster ~readahead ~scattered_layout ~config specs =
  if specs = [] then invalid_arg "Scenario.run: no applications";
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let bus = Bus.create engine () in
  let disk_array =
    Array.of_list
      (List.map
         (fun d -> Disk.create engine ~bus ~rng:(Rng.split rng) ~sched:d.sched d.params)
         disks)
  in
  List.iter
    (fun spec ->
      if spec.Spec.disk < 0 || spec.Spec.disk >= Array.length disk_array then
        invalid_arg "Scenario.run: disk index out of range")
    specs;
  let cpu = Resource.create engine ~name:"cpu" ~servers:1 () in
  let layout = if scattered_layout then `Scattered (Rng.split rng) else `Packed in
  let fs =
    Acfc_fs.Fs.create engine ~config ~cpu ?hit_cost ?io_cpu_cost ?write_cluster
      ?readahead ~layout ()
  in
  let cache = Acfc_fs.Fs.cache fs in
  (match tracer with Some f -> Cache.set_tracer cache (Some f) | None -> ());
  (* Thread the observability sink through every layer of the machine.
     The engine goes first: it points the sink's clock at virtual time,
     so all later events carry simulated timestamps. *)
  (match obs with
  | None -> ()
  | Some sink ->
    Engine.set_obs engine (Some sink);
    Cache.set_obs cache (Some sink);
    Acfc_fs.Fs.set_obs fs (Some sink);
    Bus.set_obs bus (Some sink);
    Array.iter (fun d -> Disk.set_obs d (Some sink)) disk_array;
    let m = Acfc_obs.Sink.metrics sink in
    List.iteri
      (fun i spec ->
        let pid = Pid.make i in
        let prefix = Printf.sprintf "app.%d.%s" i spec.Spec.app.App.name in
        Acfc_obs.Metrics.gauge m (prefix ^ ".hits") (fun () ->
            float_of_int (Cache.pid_hits cache pid));
        Acfc_obs.Metrics.gauge m (prefix ^ ".misses") (fun () ->
            float_of_int (Cache.pid_misses cache pid));
        Acfc_obs.Metrics.gauge m (prefix ^ ".hit_ratio") (fun () ->
            let h = Cache.pid_hits cache pid and m = Cache.pid_misses cache pid in
            if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m));
        Acfc_obs.Metrics.gauge m (prefix ^ ".block_ios") (fun () ->
            float_of_int (Acfc_fs.Fs.pid_block_ios fs pid)))
      specs);
  { engine; bus; disk_array; cpu; fs; cache; rng }

let run_assembled ?monitor machine ~update_interval specs =
  let { engine; disk_array; fs; cache; rng; _ } = machine in
  let stop_daemon = Acfc_fs.Fs.spawn_update_daemon fs ~interval:update_interval () in
  let finish_times = Array.make (List.length specs) 0.0 in
  let done_ivars =
    List.mapi
      (fun i spec ->
        let pid = Pid.make i in
        let control =
          if spec.Spec.smart || spec.Spec.manager <> None then
            match Control.attach cache pid with
            | Ok c -> Some c
            | Error e ->
              failwith
                ("Scenario: manager registration failed: " ^ Acfc_core.Error.to_string e)
          else None
        in
        (* A named manager installs the unified policy core's live
           adapter as this pid's replacement plug-in; the app itself
           only sees a Control handle when it is smart. *)
        (match spec.Spec.manager with
        | None -> ()
        | Some pname ->
          let entry =
            match Acfc_policy.Registry.find pname with
            | Ok e -> e
            | Error msg -> failwith ("Scenario: " ^ msg)
          in
          let adapter =
            Acfc_policy.Live.make entry ~capacity:(Cache.capacity cache) ()
          in
          (match Acfc_policy.Live.install adapter (Option.get control) with
          | Ok () -> ()
          | Error e ->
            failwith
              ("Scenario: manager plug-in install failed: "
              ^ Acfc_core.Error.to_string e)));
        let env =
          {
            Env.engine;
            fs;
            pid;
            control = (if spec.Spec.smart then control else None);
            cpu = Some machine.cpu;
            rng = Rng.split rng;
          }
        in
        let iv = Ivar.create engine in
        Engine.spawn engine ~name:spec.Spec.app.App.name (fun () ->
            App.run spec.Spec.app env ~disk:disk_array.(spec.Spec.disk);
            finish_times.(i) <- Engine.now engine;
            Ivar.fill iv ());
        iv)
      specs
  in
  (* The live-monitoring fiber follows the update daemon's pattern: a
     periodic loop the coordinator stops once the workloads are done.
     Only spawned when a monitor is attached, so unmonitored runs keep
     their exact event counts. *)
  let stop_monitor = ref (fun () -> ()) in
  (match monitor with
  | None -> ()
  | Some (p, metrics, every) ->
    let stopped = ref false in
    stop_monitor := (fun () -> stopped := true);
    Engine.spawn engine ~name:"monitor" (fun () ->
        while not !stopped do
          Engine.delay engine every;
          if not !stopped then
            Acfc_obs.Monitor.sample p ~metrics ~now:(Engine.now engine)
        done));
  Engine.spawn engine ~name:"coordinator" (fun () ->
      List.iter Ivar.read done_ivars;
      (* Flush what the applications left dirty so write I/Os are fully
         accounted, then let the update daemon exit. *)
      ignore (Acfc_fs.Fs.sync fs);
      stop_daemon ();
      !stop_monitor ());
  Engine.run engine;
  (match monitor with
  | None -> ()
  | Some (p, metrics, _) ->
    let now = Engine.now engine in
    Acfc_obs.Monitor.sample p ~metrics ~now;
    Acfc_obs.Monitor.finish p ~now);
  let apps =
    List.mapi
      (fun i spec ->
        let pid = Pid.make i in
        {
          Runner.app_name = spec.Spec.app.App.name;
          pid;
          elapsed = finish_times.(i);
          disk_reads = Acfc_fs.Fs.pid_disk_reads fs pid;
          disk_writes = Acfc_fs.Fs.pid_disk_writes fs pid;
          block_ios = Acfc_fs.Fs.pid_block_ios fs pid;
          cache_hits = Cache.pid_hits cache pid;
          cache_misses = Cache.pid_misses cache pid;
        })
      specs
  in
  {
    Runner.apps;
    makespan = Array.fold_left Float.max 0.0 finish_times;
    total_ios = Acfc_fs.Fs.total_block_ios fs;
    cache_hits = Cache.hits cache;
    cache_misses = Cache.misses cache;
    overrules = Cache.overrule_count cache;
    placeholders_created = Cache.placeholders_created cache;
    placeholders_used = Cache.placeholders_used cache;
    engine_events = Engine.events_processed engine;
  }

(* Pair a CLI-facing [?monitor:(producer, every)] with the sink's
   metrics registry; a monitor without a sink has nothing to sample. *)
let monitor_with_metrics ~who monitor obs =
  match (monitor, obs) with
  | None, _ -> None
  | Some (p, every), Some sink -> Some (p, Acfc_obs.Sink.metrics sink, every)
  | Some _, None ->
    invalid_arg (who ^ ": a monitor needs an observability sink (obs)")

let run_specs ?(seed = 0) ?disks ?disk_sched ?(update_interval = 30.0) ?hit_cost
    ?io_cpu_cost ?write_cluster ?readahead ?(scattered_layout = false) ?revocation
    ?shared_files ?tracer ?obs ?monitor ~cache_blocks ~alloc_policy specs =
  let disks =
    match disks with
    | None -> default_disks
    | Some params -> List.map (fun p -> { params = p; sched = Disk.Fcfs }) params
  in
  let disks =
    match disk_sched with
    | None -> disks
    | Some sched -> List.map (fun d -> { d with sched }) disks
  in
  let config =
    Config.make ~alloc_policy ?revocation ?shared_files ~capacity_blocks:cache_blocks ()
  in
  let machine =
    assemble ?tracer ?obs ~seed ~disks ~update_interval ~hit_cost ~io_cpu_cost
      ~write_cluster ~readahead ~scattered_layout ~config specs
  in
  run_assembled
    ?monitor:(monitor_with_metrics ~who:"Scenario.run_specs" monitor obs)
    machine ~update_interval specs

let spec_of_workload w =
  match w.app with
  | Inline program ->
    Spec.make ~smart:w.smart ~disk:w.disk ?manager:w.manager (App.of_program program)
  | Named name ->
    (match Catalog.resolve ?file_blocks:w.file_blocks name with
    | Ok entry ->
      Spec.make ~smart:w.smart ~disk:w.disk ?manager:w.manager entry.Catalog.app
    | Error msg -> failwith ("Scenario: " ^ msg))

let inline_workloads t =
  let inline w =
    match w.app with
    | Inline _ -> w
    | Named name ->
      (match Catalog.resolve ?file_blocks:w.file_blocks name with
      | Error msg -> failwith ("Scenario: " ^ msg)
      | Ok entry ->
        (match App.program entry.Catalog.app with
        | Some program -> { w with app = Inline program; file_blocks = None }
        | None ->
          failwith (Printf.sprintf "Scenario: application %S is not an IR program" name)))
  in
  { t with workloads = List.map inline t.workloads }

(* Reproduce the private RNG each workload fiber receives, without
   assembling a machine: the same create/split order as [assemble]
   (one split per disk, one for a scattered layout) followed by
   [run_assembled]'s per-workload splits. Keep in lockstep with both —
   this is what lets [Wir.references] fast-forward a live run's
   stochastic demand stream. *)
let workload_rngs t =
  let rng = Rng.create t.seed in
  List.iter (fun _ -> ignore (Rng.split rng)) t.disks;
  if t.scattered_layout then ignore (Rng.split rng);
  List.map (fun _ -> Rng.split rng) t.workloads

let build ?tracer ?obs t =
  let specs = List.map spec_of_workload t.workloads in
  assemble ?tracer ?obs ~seed:t.seed ~disks:t.disks ~update_interval:t.update_interval
    ~hit_cost:t.hit_cost ~io_cpu_cost:t.io_cpu_cost ~write_cluster:t.write_cluster
    ~readahead:t.readahead ~scattered_layout:t.scattered_layout ~config:t.config specs

let run ?tracer ?obs ?monitor t =
  let specs = List.map spec_of_workload t.workloads in
  let machine =
    assemble ?tracer ?obs ~seed:t.seed ~disks:t.disks
      ~update_interval:t.update_interval ~hit_cost:t.hit_cost
      ~io_cpu_cost:t.io_cpu_cost ~write_cluster:t.write_cluster
      ~readahead:t.readahead ~scattered_layout:t.scattered_layout ~config:t.config
      specs
  in
  run_assembled
    ?monitor:(monitor_with_metrics ~who:"Scenario.run" monitor obs)
    machine ~update_interval:t.update_interval specs

(* {2 Serialisation} *)

let schema = "acfc-scenario/1"

let sched_to_string = function Disk.Fcfs -> "fcfs" | Disk.Scan -> "scan"

let sched_of_string = function
  | "fcfs" -> Some Disk.Fcfs
  | "scan" -> Some Disk.Scan
  | _ -> None

let shared_files_to_string = function
  | Config.Transfer -> "transfer"
  | Config.Sticky -> "sticky"

let shared_files_of_string = function
  | "transfer" -> Some Config.Transfer
  | "sticky" -> Some Config.Sticky
  | _ -> None

let named_drives = [ ("rz56", Params.rz56); ("rz26", Params.rz26) ]

let num_i n = Json.Num (float_of_int n)

let drive_to_json (p : Params.t) =
  match List.find_opt (fun (_, q) -> q = p) named_drives with
  | Some (name, _) -> Json.Str name
  | None ->
    Json.Obj
      [
        ("name", Json.Str p.Params.name);
        ("capacity_blocks", num_i p.Params.capacity_blocks);
        ("min_seek_ms", Json.Num p.Params.min_seek_ms);
        ("avg_seek_ms", Json.Num p.Params.avg_seek_ms);
        ("max_seek_ms", Json.Num p.Params.max_seek_ms);
        ("avg_rot_ms", Json.Num p.Params.avg_rot_ms);
        ("transfer_mb_per_s", Json.Num p.Params.transfer_mb_per_s);
        ("overhead_ms", Json.Num p.Params.overhead_ms);
        ("seq_rot_factor", Json.Num p.Params.seq_rot_factor);
      ]

let to_json t =
  let c = t.config in
  let cache =
    [
      ("capacity_blocks", num_i c.Config.capacity_blocks);
      ("alloc_policy", Json.Str (Config.alloc_policy_to_string c.Config.alloc_policy));
    ]
    @ (if c.Config.max_managers <> 64 then
         [ ("max_managers", num_i c.Config.max_managers) ]
       else [])
    @ (if c.Config.max_levels <> 32 then [ ("max_levels", num_i c.Config.max_levels) ]
       else [])
    @ (if c.Config.max_file_records <> 1024 then
         [ ("max_file_records", num_i c.Config.max_file_records) ]
       else [])
    @ (if c.Config.max_placeholders <> c.Config.capacity_blocks then
         [ ("max_placeholders", num_i c.Config.max_placeholders) ]
       else [])
    @ (match c.Config.revocation with
      | None -> []
      | Some r ->
        [
          ( "revocation",
            Json.Obj
              [
                ("min_decisions", num_i r.Config.min_decisions);
                ("mistake_ratio", Json.Num r.Config.mistake_ratio);
              ] );
        ])
    @
    match c.Config.shared_files with
    | Config.Transfer -> []
    | sf -> [ ("shared_files", Json.Str (shared_files_to_string sf)) ]
  in
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  let cpu =
    opt "hit_cost" (fun v -> Json.Num v) t.hit_cost
    @ opt "io_cpu_cost" (fun v -> Json.Num v) t.io_cpu_cost
  in
  let fs =
    opt "readahead" (fun v -> Json.Bool v) t.readahead
    @ opt "write_cluster" num_i t.write_cluster
    @ (if t.scattered_layout then [ ("scattered_layout", Json.Bool true) ] else [])
    @
    if t.update_interval <> 30.0 then
      [ ("update_interval_s", Json.Num t.update_interval) ]
    else []
  in
  let disks =
    List.map
      (fun d ->
        Json.Obj
          [ ("drive", drive_to_json d.params); ("sched", Json.Str (sched_to_string d.sched)) ])
      t.disks
  in
  let workloads =
    List.map
      (fun w ->
        Json.Obj
          ((match w.app with
           | Named name -> [ ("app", Json.Str name) ]
           | Inline program -> [ ("program", Wir.to_json program) ])
          @ [ ("smart", Json.Bool w.smart); ("disk", num_i w.disk) ]
          @ opt "manager" (fun m -> Json.Str m) w.manager
          @ opt "file_blocks" num_i w.file_blocks))
      t.workloads
  in
  let link_fields l =
    [
      ("latency_ms", Json.Num l.latency_ms);
      ("bandwidth_mb_per_s", Json.Num l.bandwidth_mb_per_s);
    ]
  in
  let fleet =
    match t.fleet with
    | None -> []
    | Some f ->
      let links =
        (* Canonical order: ascending client index (parse accepts any). *)
        match List.sort (fun (a, _) (b, _) -> compare a b) f.links with
        | [] -> []
        | ls ->
          [
            ( "links",
              Json.List
                (List.map
                   (fun (c, l) -> Json.Obj (("client", num_i c) :: link_fields l))
                   ls) );
          ]
      in
      [
        ( "fleet",
          Json.Obj
            ([ ("clients", num_i f.clients) ]
            @ (if f.shared_files <> 0 then [ ("shared_files", num_i f.shared_files) ]
               else [])
            @ [
                ( "server",
                  Json.Obj
                    [
                      ("cache_blocks", num_i f.server.server_cache_blocks);
                      ("drive", drive_to_json f.server.server_drive);
                    ] );
                ("network", Json.Obj (link_fields f.net));
              ]
            @ links
            @ opt "lookahead_ms" (fun v -> Json.Num v) f.lookahead_ms) );
      ]
  in
  let obs =
    opt "trace" (fun p -> Json.Str p) t.obs.trace_path
    @ opt "metrics" (fun p -> Json.Str p) t.obs.metrics_path
  in
  Json.Obj
    ([ ("schema", Json.Str schema); ("seed", num_i t.seed); ("cache", Json.Obj cache) ]
    @ (if cpu <> [] then [ ("cpu", Json.Obj cpu) ] else [])
    @ (if fs <> [] then [ ("fs", Json.Obj fs) ] else [])
    @ [ ("disks", Json.List disks); ("workloads", Json.List workloads) ]
    @ fleet
    @ if obs <> [] then [ ("obs", Json.Obj obs) ] else [])

(* {3 Parsing} *)

module D = Json.Decode

let ( let* ) = Result.bind

(* A string member drawn from a fixed vocabulary. *)
let enum of_string unknown =
  D.conv (fun s -> Option.to_result ~none:(unknown s) (of_string s)) D.str

let decode_revocation =
  D.record [ "min_decisions"; "mistake_ratio" ] (fun o ->
      let* min_decisions = D.req o "min_decisions" D.int in
      let* mistake_ratio = D.req o "mistake_ratio" D.num in
      Ok { Config.min_decisions; mistake_ratio })

let decode_cache =
  D.record
    [
      "capacity_blocks";
      "alloc_policy";
      "max_managers";
      "max_levels";
      "max_file_records";
      "max_placeholders";
      "revocation";
      "shared_files";
    ]
    (fun o ->
      let* capacity_blocks = D.req o "capacity_blocks" D.int in
      let* alloc_policy =
        D.default o "alloc_policy"
          (enum Config.alloc_policy_of_string
             (Printf.sprintf
                "unknown allocation policy %S (expected global-lru, alloc-lru, lru-s, \
                 lru-sp or clock-sp)"))
          Config.Lru_sp
      in
      let* max_managers = D.opt o "max_managers" D.int in
      let* max_levels = D.opt o "max_levels" D.int in
      let* max_file_records = D.opt o "max_file_records" D.int in
      let* max_placeholders = D.opt o "max_placeholders" D.int in
      let* revocation = D.opt o "revocation" decode_revocation in
      let* shared_files =
        D.opt o "shared_files"
          (enum shared_files_of_string
             (Printf.sprintf
                "unknown shared_files mode %S (expected transfer or sticky)"))
      in
      try
        Ok
          (Config.make ~alloc_policy ?max_managers ?max_levels ?max_file_records
             ?max_placeholders ?revocation ?shared_files ~capacity_blocks ())
      with Invalid_argument m -> D.fail (D.path o) m)

let decode_drive ~path = function
  | Json.Str name ->
    (match List.assoc_opt name named_drives with
    | Some p -> Ok p
    | None ->
      D.fail path
        (Printf.sprintf "unknown drive %S (expected rz56, rz26 or a parameter object)"
           name))
  | Json.Obj _ as j ->
    D.record
      [
        "name";
        "capacity_blocks";
        "min_seek_ms";
        "avg_seek_ms";
        "max_seek_ms";
        "avg_rot_ms";
        "transfer_mb_per_s";
        "overhead_ms";
        "seq_rot_factor";
      ]
      (fun o ->
        let num name = D.req o name D.num in
        let* name = D.req o "name" D.str in
        let* capacity_blocks = D.req o "capacity_blocks" D.int in
        let* min_seek_ms = num "min_seek_ms" in
        let* avg_seek_ms = num "avg_seek_ms" in
        let* max_seek_ms = num "max_seek_ms" in
        let* avg_rot_ms = num "avg_rot_ms" in
        let* transfer_mb_per_s = num "transfer_mb_per_s" in
        let* overhead_ms = num "overhead_ms" in
        let* seq_rot_factor = num "seq_rot_factor" in
        Ok
          {
            Params.name;
            capacity_blocks;
            min_seek_ms;
            avg_seek_ms;
            max_seek_ms;
            avg_rot_ms;
            transfer_mb_per_s;
            overhead_ms;
            seq_rot_factor;
          })
      ~path j
  | _ -> D.fail path "expected a drive name or parameter object"

let decode_disk =
  D.record [ "drive"; "sched" ] (fun o ->
      let* params = D.req o "drive" decode_drive in
      let* sched =
        D.default o "sched"
          (enum sched_of_string
             (Printf.sprintf "unknown disk scheduler %S (expected fcfs or scan)"))
          Disk.Fcfs
      in
      Ok { params; sched })

let decode_workload ~n_disks =
  D.record [ "app"; "program"; "smart"; "disk"; "manager"; "file_blocks" ] (fun o ->
      let* file_blocks = D.opt o "file_blocks" D.int in
      (* A workload is either a catalog name ("app") or an inline
         workload IR program ("program"), never both. *)
      let* app, smart_default, disk_default =
        match (D.mem o "app", D.mem o "program") with
        | true, true -> D.fail (D.path o) {|pass "app" or "program", not both|}
        | false, false -> D.fail (D.path o) {|missing required field "app" or "program"|}
        | true, false ->
          let* name = D.req o "app" D.str in
          (match Catalog.resolve ?file_blocks name with
          | Ok entry -> Ok (Named name, entry.Catalog.smart_default, entry.Catalog.disk)
          | Error msg -> D.fail (D.at o "app") msg)
        | false, true ->
          let path = D.at o "program" in
          let* () =
            if file_blocks = None then Ok ()
            else D.fail path "an inline program does not take file_blocks"
          in
          let* program = D.req o "program" Wir.decoder in
          let* () = Wir.check ~path program in
          Ok (Inline program, true, 0)
      in
      let* smart = D.default o "smart" D.bool smart_default in
      let* disk = D.default o "disk" D.int disk_default in
      let* manager = D.opt o "manager" D.str in
      (* The registry's own message (valid names, near-match suggestion)
         is surfaced verbatim under this workload's manager path. *)
      let* () =
        match check_manager manager with
        | Ok () -> Ok ()
        | Error msg -> D.fail (D.at o "manager") msg
      in
      if disk < 0 || disk >= n_disks then
        D.fail (D.at o "disk")
          (Printf.sprintf "disk index %d out of range (%d disk%s)" disk n_disks
             (if n_disks = 1 then "" else "s"))
      else Ok { app; smart; disk; file_blocks; manager })

let decode_obs =
  D.record [ "trace"; "metrics" ] (fun o ->
      let* trace_path = D.opt o "trace" D.str in
      let* metrics_path = D.opt o "metrics" D.str in
      Ok { trace_path; metrics_path })

let link_fields = [ "latency_ms"; "bandwidth_mb_per_s" ]

let decode_link o =
  let* latency_ms = D.req o "latency_ms" D.num in
  let* bandwidth_mb_per_s = D.req o "bandwidth_mb_per_s" D.num in
  Ok { latency_ms; bandwidth_mb_per_s }

let decode_fleet =
  D.record
    [ "clients"; "shared_files"; "server"; "network"; "links"; "lookahead_ms" ]
    (fun o ->
      let* clients = D.req o "clients" D.int in
      let* shared_files = D.default o "shared_files" D.int 0 in
      let* server =
        D.req o "server"
          (D.record [ "cache_blocks"; "drive" ] (fun o ->
               let* server_cache_blocks = D.req o "cache_blocks" D.int in
               let* server_drive = D.req o "drive" decode_drive in
               Ok { server_cache_blocks; server_drive }))
      in
      let* net = D.req o "network" (D.record link_fields decode_link) in
      let* links =
        D.default o "links"
          (D.list
             (D.record ("client" :: link_fields) (fun o ->
                  let* client = D.req o "client" D.int in
                  let* link = decode_link o in
                  Ok (client, link))))
          []
      in
      let* lookahead_ms = D.opt o "lookahead_ms" D.num in
      let f = { clients; shared_files; server; net; links; lookahead_ms } in
      match fleet_check f with
      | Ok () -> Ok f
      | Error (sub, msg) -> D.fail (D.path o ^ sub) msg)

let decoder =
  D.record
    [ "schema"; "seed"; "cache"; "cpu"; "fs"; "disks"; "workloads"; "fleet"; "obs" ]
    (fun o ->
      let* () = D.schema o schema in
      let* seed = D.default o "seed" D.int 0 in
      let* config = D.req o "cache" decode_cache in
      let* hit_cost, io_cpu_cost =
        D.default o "cpu"
          (D.record [ "hit_cost"; "io_cpu_cost" ] (fun o ->
               let* hit_cost = D.opt o "hit_cost" D.num in
               let* io_cpu_cost = D.opt o "io_cpu_cost" D.num in
               Ok (hit_cost, io_cpu_cost)))
          (None, None)
      in
      let* readahead, write_cluster, scattered_layout, update_interval =
        D.default o "fs"
          (D.record
             [ "readahead"; "write_cluster"; "scattered_layout"; "update_interval_s" ]
             (fun o ->
               let* readahead = D.opt o "readahead" D.bool in
               let* write_cluster = D.opt o "write_cluster" D.int in
               let* scattered = D.default o "scattered_layout" D.bool false in
               let* interval = D.default o "update_interval_s" D.num 30.0 in
               Ok (readahead, write_cluster, scattered, interval)))
          (None, None, false, 30.0)
      in
      let* disks = D.default o "disks" (D.list decode_disk) default_disks in
      let* () =
        if disks = [] then D.fail (D.at o "disks") "disks must be non-empty" else Ok ()
      in
      let* workloads =
        D.req o "workloads" (D.list (decode_workload ~n_disks:(List.length disks)))
      in
      let* () =
        if workloads = [] then D.fail (D.at o "workloads") "workloads must be non-empty"
        else Ok ()
      in
      let* fleet = D.opt o "fleet" decode_fleet in
      let* obs = D.default o "obs" decode_obs no_obs in
      Ok
        {
          seed;
          config;
          update_interval;
          hit_cost;
          io_cpu_cost;
          write_cluster;
          readahead;
          scattered_layout;
          disks;
          workloads;
          fleet;
          obs;
        })

let of_json = D.run ~label:"scenario" decoder

let to_string t = Json.to_string (to_json t)

let of_string = D.of_string ~label:"scenario" decoder

let save t path = Json.write_file path (to_string t ^ "\n")

let load = D.load ~label:"scenario" decoder

let hash t = Digest.to_hex (Digest.string (to_string t))

let hash_list ts = Digest.to_hex (Digest.string (String.concat "\n" (List.map hash ts)))

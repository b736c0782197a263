(* Calls into each simulator layer, timed from outside, and the traced
   machine run whose records give the per-layer counts. *)

module Scenario = Acfc_scenario.Scenario
module Runner = Acfc_workload.Runner
module Cache = Acfc_core.Cache
module Event = Acfc_core.Event
module Recorder = Acfc_replacement.Recorder
module Sink = Acfc_obs.Sink
module Trace = Acfc_obs.Trace
module Ladder = Perfbench.Ladder

let now = Unix.gettimeofday

(* Minor words allocated by every domain, joined ones included:
   [Gc.minor_words] would miss what the fleet's worker domains allocate. *)
let words () = (Gc.stat ()).minor_words

(* [f ()] and the host nanoseconds and minor words it spent, charged to
   the [refs] references its result accounts for. *)
let measure ~refs f =
  let w0 = words () in
  let t0 = now () in
  let x = f () in
  let t1 = now () in
  let w1 = words () in
  (x, { Ladder.ns = (t1 -. t0) *. 1e9; words = w1 -. w0; refs = refs x })

(* What one traced machine run saw. *)
type traced = {
  result : Runner.t;
  entries : Recorder.entry array;
  demand : Acfc_core.Block.t array;  (** demand references, read-ahead excluded *)
  syscalls : int;
  disk_ios : int;
  disk_busy_s : float;  (** simulated seek + rotation + transfer *)
  disk_wait_s : float;  (** simulated queueing before service *)
  wall_s : float;
  violations : string list;  (** broken invariants, empty when consistent *)
}

let count tbl pid = Option.value ~default:0 (Hashtbl.find_opt tbl pid)

let bump tbl pid = Hashtbl.replace tbl pid (count tbl pid + 1)

(* One machine run with the cache tracer and an observability sink
   attached, checked against its own results: the tracer's per-pid hits
   and misses must equal each application's counts, and the disk
   records must equal the applications' disk reads and writes. *)
let traced_run scn =
  let recorder = Recorder.create () in
  let hits = Hashtbl.create 8 and misses = Hashtbl.create 8 in
  let tracer ev =
    Recorder.tracer recorder ev;
    match ev with
    | Event.Hit { pid; _ } -> bump hits pid
    | Event.Miss { pid; _ } -> bump misses pid
    | _ -> ()
  in
  let syscalls = ref 0 and reads = ref 0 and writes = ref 0 in
  let busy = ref 0.0 and wait = ref 0.0 in
  let record { Trace.ev; _ } =
    match ev with
    | Trace.Syscall _ -> incr syscalls
    | Trace.Disk_io d ->
      incr (if d.kind = "read" then reads else writes);
      busy := !busy +. d.seek +. d.rot +. d.xfer;
      wait := !wait +. d.wait
    | _ -> ()
  in
  let obs = Sink.create ~backend:(Sink.Custom record) () in
  let t0 = now () in
  let result = Scenario.run ~tracer ~obs scn in
  let wall_s = now () -. t0 in
  let pid_violations =
    List.filter_map
      (fun (a : Runner.app_result) ->
        let h = count hits a.pid and m = count misses a.pid in
        if h = a.cache_hits && m = a.cache_misses then None
        else
          Some
            (Printf.sprintf "%s: tracer counted %d hits/%d misses, runner %d/%d"
               a.app_name h m a.cache_hits a.cache_misses))
      result.apps
  in
  let sum f = List.fold_left (fun acc a -> acc + f a) 0 result.apps in
  let app_reads = sum (fun a -> a.Runner.disk_reads)
  and app_writes = sum (fun a -> a.Runner.disk_writes) in
  let disk_violations =
    if !reads = app_reads && !writes = app_writes then []
    else
      [
        Printf.sprintf "disk records %d reads/%d writes, runner %d/%d" !reads !writes
          app_reads app_writes;
      ]
  in
  {
    result;
    entries = Recorder.entries recorder;
    demand = Recorder.to_trace recorder;
    syscalls = !syscalls;
    disk_ios = !reads + !writes;
    disk_busy_s = !busy;
    disk_wait_s = !wait;
    wall_s;
    violations = pid_violations @ disk_violations;
  }

(* The core rung: a recorded stream replayed through a bare cache of the
   cell's configuration, with no device behind it. *)
let replay (scn : Scenario.t) entries =
  let cache = Cache.create scn.config in
  Array.iter
    (fun (e : Recorder.entry) ->
      ignore (Cache.read ~prefetch:e.prefetch cache ~pid:e.pid e.block))
    entries

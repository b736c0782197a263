open Acfc_sim
module Obs = Acfc_obs

type kind = Read | Write

type sched = Fcfs | Scan

type obs_state = {
  sink : Obs.Sink.t;
  h_service : Obs.Metrics.histogram;  (* seconds per request, in service *)
  h_wait : Obs.Metrics.histogram;  (* seconds queued before service *)
}

type t = {
  engine : Engine.t;
  params : Params.t;
  bus : Bus.t option;
  rng : Rng.t option;
  sched : sched;
  mutable obs : obs_state option;
  mutable busy : bool;
  queue : (unit -> unit) Sched_queue.t;  (* resume thunks; see Sched_queue *)
  pending_addr : int ref;  (* [enqueue]'s argument slot *)
  enqueue : (unit -> unit) -> unit;  (* [suspend]'s register, built once *)
  mutable head : int;  (* block address after the last transfer *)
  mutable reads : int;
  mutable writes : int;
  mutable sequential_hits : int;
  mutable blocks_transferred : int;
  (* [busy_time] and [total_wait], in a float array so an update stores
     an unboxed float instead of boxing a mutable float field. *)
  times : float array;
}

let busy_i = 0

let wait_i = 1

let create engine ?bus ?rng ?(sched = Fcfs) params =
  let queue =
    Sched_queue.create
      (match sched with Fcfs -> Sched_queue.Fcfs | Scan -> Sched_queue.Scan)
  in
  let pending_addr = ref 0 in
  {
    engine;
    params;
    bus;
    rng;
    sched;
    obs = None;
    busy = false;
    queue;
    pending_addr;
    enqueue = (fun resume -> Sched_queue.add queue ~addr:!pending_addr resume);
    head = 0;
    reads = 0;
    writes = 0;
    sequential_hits = 0;
    blocks_transferred = 0;
    times = [| 0.0; 0.0 |];
  }

let params t = t.params

let sched t = t.sched

let queue_length t = Sched_queue.length t.queue

let set_obs t obs =
  match obs with
  | None -> t.obs <- None
  | Some sink ->
    let m = Obs.Sink.metrics sink in
    let name = t.params.Params.name in
    let h label = Obs.Metrics.histogram m (Printf.sprintf "disk.%s.%s" name label) in
    let g label read = Obs.Metrics.gauge m (Printf.sprintf "disk.%s.%s" name label) read in
    g "reads" (fun () -> float_of_int t.reads);
    g "writes" (fun () -> float_of_int t.writes);
    g "sequential_hits" (fun () -> float_of_int t.sequential_hits);
    g "blocks_transferred" (fun () -> float_of_int t.blocks_transferred);
    g "busy_s" (fun () -> t.times.(busy_i));
    g "wait_s" (fun () -> t.times.(wait_i));
    g "queue_depth" (fun () -> float_of_int (queue_length t));
    t.obs <- Some { sink; h_service = h "service_s"; h_wait = h "wait_s_hist" }

let check_addr t addr =
  if addr < 0 || addr >= t.params.Params.capacity_blocks then
    invalid_arg
      (Printf.sprintf "Disk.io(%s): address %d out of range" t.params.Params.name addr)

let rotational_latency t ~sequential =
  let avg = t.params.Params.avg_rot_ms /. 1000.0 in
  if sequential then t.params.Params.seq_rot_factor *. avg
  else
    match t.rng with
    | None -> avg
    | Some rng -> Rng.float rng (2.0 *. avg)

let service_time t ~addr =
  check_addr t addr;
  let sequential = addr = t.head in
  let distance = abs (addr - t.head) in
  let avg_rot = t.params.Params.avg_rot_ms /. 1000.0 in
  (t.params.Params.overhead_ms /. 1000.0)
  +. Params.seek_time_s t.params ~distance
  +. (if sequential then t.params.Params.seq_rot_factor *. avg_rot else avg_rot)
  +. Params.transfer_time_s t.params

(* Choose which waiter the freed drive serves next: an O(1)/O(log n)
   lookup in the indexed queue (arrival order for FCFS, elevator order
   from the current head position for SCAN). *)
let pick_next t = Sched_queue.pick t.queue ~head:t.head

let serve t kind ~addr ~blocks ~waited =
  let started = Engine.now t.engine in
  let sequential = addr = t.head in
  if sequential then t.sequential_hits <- t.sequential_hits + 1;
  let distance = abs (addr - t.head) in
  (* Positioning, decomposed so the trace can attribute the time. *)
  let seek =
    (t.params.Params.overhead_ms /. 1000.0) +. Params.seek_time_s t.params ~distance
  in
  let rot = rotational_latency t ~sequential in
  Engine.delay t.engine (seek +. rot);
  (* A clustered request streams its blocks in one rotation-aligned
     burst: one positioning, [blocks] transfers. *)
  let transfer = float_of_int blocks *. Params.transfer_time_s t.params in
  (match t.bus with
  | Some bus -> Bus.transfer bus ~duration:transfer
  | None -> Engine.delay t.engine transfer);
  t.head <- addr + blocks;
  t.blocks_transferred <- t.blocks_transferred + blocks;
  (match kind with
  | Read -> t.reads <- t.reads + 1
  | Write -> t.writes <- t.writes + 1);
  let service = Engine.now t.engine -. started in
  t.times.(busy_i) <- t.times.(busy_i) +. service;
  match t.obs with
  | None -> ()
  | Some { sink; h_service; h_wait } ->
    Obs.Metrics.observe h_service service;
    Obs.Metrics.observe h_wait waited;
    Obs.Sink.emit sink
      (Obs.Trace.Disk_io
         {
           disk = t.params.Params.name;
           kind = (match kind with Read -> "read" | Write -> "write");
           addr;
           blocks;
           seek;
           rot;
           xfer = transfer;
           wait = waited;
         })

(* The freed drive goes straight to the next waiter, if any. *)
let handoff t =
  match pick_next t with
  | Some resume -> Engine.schedule t.engine ~at:(Engine.now t.engine) resume
  | None -> t.busy <- false

let io ?(blocks = 1) t kind ~addr =
  check_addr t addr;
  if blocks < 1 || addr + blocks > t.params.Params.capacity_blocks then
    invalid_arg "Disk.io: bad block count";
  let waited =
    if t.busy then begin
      let enqueued_at = Engine.now t.engine in
      t.pending_addr := addr;
      Engine.suspend t.engine t.enqueue;
      (* Woken holding the drive: [busy] stayed true across the handoff. *)
      let waited = Engine.now t.engine -. enqueued_at in
      t.times.(wait_i) <- t.times.(wait_i) +. waited;
      waited
    end
    else begin
      t.busy <- true;
      0.0
    end
  in
  (try serve t kind ~addr ~blocks ~waited
   with e ->
     handoff t;
     raise e);
  handoff t

let reads t = t.reads

let writes t = t.writes

let sequential_hits t = t.sequential_hits

let blocks_transferred t = t.blocks_transferred

let busy_time t = t.times.(busy_i)

let total_wait t = t.times.(wait_i)

let reset_stats t =
  t.reads <- 0;
  t.writes <- 0;
  t.sequential_hits <- 0;
  t.blocks_transferred <- 0;
  t.times.(busy_i) <- 0.0;
  t.times.(wait_i) <- 0.0

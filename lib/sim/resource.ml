type t = {
  engine : Engine.t;
  name : string;
  servers : int;
  mutable held : int;
  waiters : (unit -> unit) Queue.t; (* resume thunks, FIFO *)
  enqueue : (unit -> unit) -> unit; (* [suspend]'s register, built once *)
  mutable served : int;
  (* Float statistics in a flat float array, so an update stores an
     unboxed float instead of boxing a mutable float field:
     [total_wait], the busy-time integral, and the time of its last
     change. *)
  stats : float array;
}

let total_wait_i = 0

let busy_integral_i = 1

let last_change_i = 2

let create engine ?(name = "resource") ~servers () =
  if servers <= 0 then invalid_arg "Resource.create: servers must be positive";
  let waiters = Queue.create () in
  {
    engine;
    name;
    servers;
    held = 0;
    waiters;
    enqueue = (fun resume -> Queue.push resume waiters);
    served = 0;
    stats = [| 0.0; 0.0; Engine.now engine |];
  }

let name t = t.name

let advance_integral t =
  let now = Engine.now t.engine in
  let s = t.stats in
  s.(busy_integral_i) <-
    s.(busy_integral_i) +. (float_of_int t.held *. (now -. s.(last_change_i)));
  s.(last_change_i) <- now

let acquire t =
  if t.held < t.servers && Queue.is_empty t.waiters then begin
    advance_integral t;
    t.held <- t.held + 1;
    t.served <- t.served + 1
  end
  else begin
    let enqueued_at = Engine.now t.engine in
    Engine.suspend t.engine t.enqueue;
    (* Woken by [release]: the server was handed to us directly. *)
    t.stats.(total_wait_i) <-
      t.stats.(total_wait_i) +. (Engine.now t.engine -. enqueued_at);
    t.served <- t.served + 1
  end

let release t =
  if t.held <= 0 then invalid_arg "Resource.release: not held";
  if Queue.is_empty t.waiters then begin
    advance_integral t;
    t.held <- t.held - 1
  end
  else
    (* Hand over without decrementing [held]: the server stays busy.
       Wake at the current instant so FIFO order is preserved. *)
    Engine.schedule t.engine ~at:(Engine.now t.engine) (Queue.take t.waiters)

(* Inlined, so a computed [service] reaches [Engine.delay]'s unboxed
   slot without being boxed at a call. *)
let[@inline] use t ~service =
  acquire t;
  (match Engine.delay t.engine service with
  | () -> ()
  | exception e ->
    release t;
    raise e);
  release t

let in_use t = t.held

let queue_length t = Queue.length t.waiters

let served t = t.served

let busy_time t =
  advance_integral t;
  t.stats.(busy_integral_i)

let total_wait t = t.stats.(total_wait_i)

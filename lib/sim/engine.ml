module Obs = Acfc_obs

(* A simulated process. A record and its event are all a fiber costs
   the engine: the effect handler is shared by every fiber of an engine
   and learns which fiber performed from [current], and the fiber's
   computation returns its own record, so the shared [retc] knows who
   finished. Live fibers form a circular list through [prev]/[next], walked only
   to name the stuck fibers of a {!Deadlock}. *)
type fiber = {
  name : string;
  body : unit -> unit;
  (* Suspensions so far, plus one per resume: odd while blocked in
     [suspend]. A resume thunk captures the odd value it must find, so
     a second call, or a call after a later suspension, is caught. *)
  mutable susp : int;
  mutable prev : fiber;
  mutable next : fiber;
  (* The continuation of the fiber's latest sleep; [unstarted] until
     its first. *)
  mutable parked : (unit, unit) Effect.Deep.continuation;
  run : job; (* the fiber's own event: its start, then every wake-up *)
}

and job = Nop | Thunk of (unit -> unit) | Run of fiber

type _ Effect.t += Park : unit Effect.t

(* A genuine continuation that is never resumed, so [parked] needs no
   option box: the stand-in for "not started yet". *)
let unstarted : (unit, unit) Effect.Deep.continuation =
  let k : (unit, unit) Effect.Deep.continuation option ref = ref None in
  Effect.Deep.try_with Effect.perform Park
    {
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Park -> Some (fun (c : (a, unit) Effect.Deep.continuation) -> k := Some c)
          | _ -> None);
    };
  Option.get !k

(* Specialised event queue: a binary min-heap on (time, seq) laid out as
   parallel scalar columns — unboxed float times, int seqs, and int pool
   slots — so a push/pop allocates nothing and sifting moves only
   scalars. Job payloads (closures, fiber records) sit still in a
   free-listed pool: a heap entry points at its pool slot, so no pointer
   ever moves through the sift loop's write barrier. [seq] breaks time
   ties in schedule order, which keeps same-instant events FIFO and runs
   deterministic.

   Exposed in the interface for the property tests, which replay random
   (time, seq) sequences against the generic closure-based
   [Acfc_oracle.Heap]. *)
module Equeue = struct
  type nonrec job = job = Nop | Thunk of (unit -> unit) | Run of fiber

  type t = {
    mutable ts : float array;
    mutable sq : int array;
    mutable js : int array; (* heap index -> pool slot *)
    mutable jobs : job array; (* pool slot -> payload; Nop when free *)
    mutable free : int array; (* stack of free pool slots *)
    mutable nfree : int;
    mutable size : int;
    st : float array; (* staged push time; see [stage] / [push_staged] *)
  }

  (* Pool capacity always equals heap capacity: size + nfree = cap. *)
  let create () =
    {
      ts = Array.make 64 0.0;
      sq = Array.make 64 0;
      js = Array.make 64 0;
      jobs = Array.make 64 Nop;
      free = Array.init 64 (fun i -> 63 - i);
      nfree = 64;
      size = 0;
      st = Array.make 1 0.0;
    }

  let length t = t.size

  let is_empty t = t.size = 0

  let grow t =
    let old = Array.length t.ts in
    let cap = 2 * old in
    let ts = Array.make cap 0.0
    and sq = Array.make cap 0
    and js = Array.make cap 0
    and jobs = Array.make cap Nop
    and free = Array.make cap 0 in
    Array.blit t.ts 0 ts 0 t.size;
    Array.blit t.sq 0 sq 0 t.size;
    Array.blit t.js 0 js 0 t.size;
    Array.blit t.jobs 0 jobs 0 old;
    Array.blit t.free 0 free 0 t.nfree;
    for i = 0 to old - 1 do
      free.(t.nfree + i) <- old + i
    done;
    t.nfree <- t.nfree + old;
    t.ts <- ts;
    t.sq <- sq;
    t.js <- js;
    t.jobs <- jobs;
    t.free <- free

  (* (time, seq) lexicographic. Forced inline: as an out-of-line call
     the [tm] float argument would be boxed once per sift level. *)
  let[@inline always] leq t i tm sq =
    t.ts.(i) < tm || (t.ts.(i) = tm && t.sq.(i) <= sq)

  (* A float passed to the non-inlined [push] is boxed at the call; the
     hot paths instead write it into the unboxed [st] slot ([stage] is
     small enough to inline, so the store stays unboxed) and call
     [push_staged]. *)
  let[@inline] stage t time = t.st.(0) <- time

  let push_staged t ~seq job =
    let time = t.st.(0) in
    if t.size = Array.length t.ts then grow t;
    let slot = t.free.(t.nfree - 1) in
    t.nfree <- t.nfree - 1;
    t.jobs.(slot) <- job;
    let i = ref t.size in
    t.size <- t.size + 1;
    (* Sift up with the hole trick: slide parents down, store once. *)
    let stop = ref false in
    while (not !stop) && !i > 0 do
      let parent = (!i - 1) / 2 in
      if leq t parent time seq then stop := true
      else begin
        t.ts.(!i) <- t.ts.(parent);
        t.sq.(!i) <- t.sq.(parent);
        t.js.(!i) <- t.js.(parent);
        i := parent
      end
    done;
    t.ts.(!i) <- time;
    t.sq.(!i) <- seq;
    t.js.(!i) <- slot

  let push t ~time ~seq job =
    stage t time;
    push_staged t ~seq job

  let top_time t =
    if t.size = 0 then invalid_arg "Equeue.top_time: empty queue";
    t.ts.(0)

  let pop t =
    if t.size = 0 then invalid_arg "Equeue.pop: empty queue";
    let slot = t.js.(0) in
    let job = t.jobs.(slot) in
    t.jobs.(slot) <- Nop;
    t.free.(t.nfree) <- slot;
    t.nfree <- t.nfree + 1;
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then begin
      let tm = t.ts.(n) and sq = t.sq.(n) and js = t.js.(n) in
      let i = ref 0 in
      let stop = ref false in
      while not !stop do
        let l = (2 * !i) + 1 in
        if l >= n then stop := true
        else begin
          let r = l + 1 in
          let c =
            if r < n && not (leq t l t.ts.(r) t.sq.(r)) then r else l
          in
          if leq t c tm sq && not (t.ts.(c) = tm && t.sq.(c) = sq) then begin
            t.ts.(!i) <- t.ts.(c);
            t.sq.(!i) <- t.sq.(c);
            t.js.(!i) <- t.js.(c);
            i := c
          end
          else stop := true
        end
      done;
      t.ts.(!i) <- tm;
      t.sq.(!i) <- sq;
      t.js.(!i) <- js
    end;
    job
end

type t = {
  (* Virtual time, in a 1-element float array so reads and writes stay
     unboxed (a mutable float field in this mixed record would box on
     every clock advance). *)
  clock : float array;
  mutable seq : int;
  events : Equeue.t;
  (* Ready ring: FIFO of jobs due exactly now. A completion scheduled at
     the current instant, when nothing in the heap could run before it,
     bypasses the heap entirely — so a disk batch or an ivar broadcast
     costs one ring slot per waiter instead of one heap op each. *)
  mutable rbuf : Equeue.job array;
  mutable rhead : int;
  mutable rtail : int; (* rtail - rhead = occupancy; indices mod capacity *)
  mutable live : int; (* fibers spawned and not finished *)
  mutable waiting : int; (* fibers currently suspended (sleepers included) *)
  fibers : fiber; (* sentinel of the circular list of live fibers *)
  (* The running fiber. Only read while a fiber runs, so it is left
     stale between events rather than reset. *)
  mutable current : fiber;
  (* The running fiber was entered by the scheduler itself, as a whole
     event, and has not entered another fiber: when it sleeps, nothing
     else runs before control is back in the event loop. Set at every
     fiber entry, so like [current] it is stale between events. *)
  mutable direct : bool;
  (* The thunk of the event being run, so a resume thunk can tell
     whether it is that whole event or is called from inside one. *)
  mutable entry : unit -> unit;
  horizon : float array; (* the running [run]/[run_until] limit *)
  mutable processed : int;
  mutable obs : Obs.Sink.t option;
  (* Argument slots for the argument-less effects: [delay] and
     [suspend] store into them, and the shared handler reads them. *)
  sleep_dt : float array;
  mutable register : (unit -> unit) -> unit;
  mutable handler : (fiber, unit) Effect.Deep.handler;
}

exception Deadlock of string

type _ Effect.t += Suspend : unit Effect.t | Sleep : unit Effect.t

let ring_length t = t.rtail - t.rhead

let ring_push t job =
  let cap = Array.length t.rbuf in
  if ring_length t = cap then begin
    let nbuf = Array.make (2 * cap) Equeue.Nop in
    for i = 0 to cap - 1 do
      nbuf.(i) <- t.rbuf.((t.rhead + i) land (cap - 1))
    done;
    t.rbuf <- nbuf;
    t.rhead <- 0;
    t.rtail <- cap
  end;
  t.rbuf.(t.rtail land (Array.length t.rbuf - 1)) <- job;
  t.rtail <- t.rtail + 1

let ring_pop t =
  let i = t.rhead land (Array.length t.rbuf - 1) in
  let job = t.rbuf.(i) in
  t.rbuf.(i) <- Equeue.Nop;
  t.rhead <- t.rhead + 1;
  job

(* An event due exactly now, with nothing in the heap able to run
   before it, goes to the ready ring: same firing order as a heap push
   (any same-time heap event already present would have top_time = at
   and forces the heap path; later pushes get larger seqs and fire
   after). [Equeue] fields are read directly: [top_time] is an
   arm's-length call whose float return would box on the hot path. *)
let[@inline] push_job t at job =
  if at = t.clock.(0) && (Equeue.is_empty t.events || t.events.Equeue.ts.(0) > at)
  then ring_push t job
  else begin
    t.seq <- t.seq + 1;
    Equeue.stage t.events at;
    Equeue.push_staged t.events ~seq:t.seq job
  end

let no_register (_ : unit -> unit) = ()

let no_entry () = ()

let no_handler : (fiber, unit) Effect.Deep.handler =
  { retc = ignore; exnc = raise; effc = (fun _ -> None) }

let now t = t.clock.(0)

let set_obs t obs =
  t.obs <- obs;
  match obs with
  | None -> ()
  | Some sink ->
    (* The engine owns virtual time, so it owns the sink's clock. *)
    Obs.Sink.set_clock sink (fun () -> t.clock.(0));
    let m = Obs.Sink.metrics sink in
    Obs.Metrics.gauge m "sim.clock" (fun () -> t.clock.(0));
    Obs.Metrics.gauge m "sim.live_fibers" (fun () -> float_of_int t.live);
    Obs.Metrics.gauge m "sim.waiting_fibers" (fun () -> float_of_int t.waiting);
    Obs.Metrics.gauge m "sim.events_processed" (fun () -> float_of_int t.processed);
    Obs.Metrics.gauge m "sim.pending_events" (fun () ->
        float_of_int (Equeue.length t.events + ring_length t))

let[@inline] schedule_job t ~at job =
  if at < t.clock.(0) then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %g is in the past (now %g)" at
         t.clock.(0));
  push_job t at job

let[@inline] schedule t ~at thunk = schedule_job t ~at (Equeue.Thunk thunk)

(* Continue [fb] inside the running event; when [fb] next blocks or
   finishes, the event gets its own fiber back. *)
let enter t fb k ~direct =
  let cur = t.current and dir = t.direct in
  t.current <- fb;
  t.direct <- direct;
  Effect.Deep.continue k ();
  t.current <- cur;
  t.direct <- dir

(* The handler's side of [suspend]: hand the staged [register] a
   one-shot resume thunk, the only allocation of a suspension besides
   the continuation itself. A resume thunk that is the whole of its
   event (what [Ivar], [Resource] and [Disk] schedule) keeps the fiber
   [direct]; one called from inside other code does not. *)
let suspended t k =
  let fb = t.current in
  let gen = fb.susp + 1 in
  fb.susp <- gen;
  t.waiting <- t.waiting + 1;
  let rec resume () =
    if fb.susp <> gen then invalid_arg "Engine: fiber resumed twice";
    fb.susp <- gen + 1;
    t.waiting <- t.waiting - 1;
    enter t fb k ~direct:(t.entry == resume)
  in
  t.register resume

(* The handler's side of a [delay] that could not be fast-forwarded:
   queue the fiber at its wake time. [dt > 0] implies the wake time is
   never in the past, so no check is needed. *)
let slept t k =
  let fb = t.current in
  t.waiting <- t.waiting + 1;
  fb.parked <- k;
  push_job t (t.clock.(0) +. t.sleep_dt.(0)) fb.run

(* Allocated once per engine and shared by every fiber: performing an
   effect finds its handler closure already built. *)
let make_handler t : (fiber, unit) Effect.Deep.handler =
  let sleep_some = Some (fun k -> slept t k) in
  let suspend_some = Some (fun k -> suspended t k) in
  {
    retc =
      (fun fb ->
        t.live <- t.live - 1;
        fb.prev.next <- fb.next;
        fb.next.prev <- fb.prev;
        match t.obs with
        | None -> ()
        | Some sink ->
          Obs.Sink.emit sink (Obs.Trace.Fiber { name = fb.name; op = "finish" }));
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Sleep -> (sleep_some : ((a, unit) Effect.Deep.continuation -> unit) option)
        | Suspend -> suspend_some
        | _ -> None);
  }

let create () =
  let rec head =
    {
      name = "";
      body = no_entry;
      susp = 0;
      prev = head;
      next = head;
      parked = unstarted;
      run = Run head;
    }
  in
  let t =
    {
      clock = Array.make 1 0.0;
      seq = 0;
      events = Equeue.create ();
      rbuf = Array.make 64 Equeue.Nop;
      rhead = 0;
      rtail = 0;
      live = 0;
      waiting = 0;
      fibers = head;
      current = head;
      direct = false;
      entry = no_entry;
      horizon = Array.make 1 Float.neg_infinity;
      processed = 0;
      obs = None;
      sleep_dt = Array.make 1 0.0;
      register = no_register;
      handler = no_handler;
    }
  in
  t.handler <- make_handler t;
  t

let run_body fb =
  fb.body ();
  fb

let start t fb =
  t.live <- t.live + 1;
  let head = t.fibers in
  fb.next <- head.next;
  fb.prev <- head;
  head.next.prev <- fb;
  head.next <- fb;
  (match t.obs with
  | None -> ()
  | Some sink -> Obs.Sink.emit sink (Obs.Trace.Fiber { name = fb.name; op = "spawn" }));
  t.current <- fb;
  t.direct <- true;
  Effect.Deep.match_with run_body fb t.handler

let spawn t ?(name = "fiber") f =
  let head = t.fibers in
  let rec fb =
    { name; body = f; susp = 0; prev = head; next = head; parked = unstarted; run = Run fb }
  in
  push_job t t.clock.(0) fb.run

let suspend t register =
  t.register <- register;
  Effect.perform Suspend

(* Fast-forward: a sleep whose wake time is strictly before every queued
   event, with the ready ring empty and the wake within the running
   horizon, is exactly the next event the loop would pop — nothing can
   be scheduled in between, because the sleeper is the only code
   running ([direct]: it was entered by the loop itself, not from
   inside other code that would resume after it). So advance the clock
   in place and keep running, taking the seq and the event count the
   queued wake would have taken. *)
let sleep t =
  let at = t.clock.(0) +. t.sleep_dt.(0) in
  if
    t.direct && t.rtail = t.rhead
    && at <= t.horizon.(0)
    && (Equeue.is_empty t.events || at < t.events.Equeue.ts.(0))
  then begin
    t.seq <- t.seq + 1;
    t.processed <- t.processed + 1;
    t.clock.(0) <- at
  end
  else Effect.perform Sleep

(* Inlined, so [dt] reaches the unboxed slot without being boxed at a
   call. *)
let[@inline] delay t dt =
  if dt < 0.0 then invalid_arg "Engine.delay: negative delay";
  if dt <> 0.0 then begin
    t.sleep_dt.(0) <- dt;
    sleep t
  end

let run_job t job =
  match job with
  | Equeue.Thunk f ->
    t.entry <- f;
    f ()
  | Run fb when fb.parked == unstarted -> start t fb
  | Run fb ->
    t.waiting <- t.waiting - 1;
    t.current <- fb;
    t.direct <- true;
    Effect.Deep.continue fb.parked ()
  | Equeue.Nop -> ()

let step t =
  if t.rtail <> t.rhead then begin
    t.processed <- t.processed + 1;
    run_job t (ring_pop t);
    true
  end
  else if Equeue.is_empty t.events then false
  else begin
    t.clock.(0) <- t.events.Equeue.ts.(0);
    let job = Equeue.pop t.events in
    t.processed <- t.processed + 1;
    run_job t job;
    true
  end

(* Outside a run no sleep may be fast-forwarded (a [delay] there is
   not in a fiber), also after a fiber's exception escapes the run. *)
let settle t = t.horizon.(0) <- Float.neg_infinity

let rec drain t = if step t then drain t

let rec drain_until t horizon =
  if
    if t.rtail <> t.rhead then t.clock.(0) <= horizon (* ring entries are due now *)
    else (not (Equeue.is_empty t.events)) && t.events.Equeue.ts.(0) <= horizon
  then begin
    ignore (step t);
    drain_until t horizon
  end

let blocked_names t =
  let rec walk fb acc =
    if fb == t.fibers then acc
    else walk fb.next (if fb.susp land 1 = 1 then fb.name :: acc else acc)
  in
  walk t.fibers.next []

let run t =
  t.horizon.(0) <- Float.infinity;
  (try drain t
   with e ->
     settle t;
     raise e);
  settle t;
  if t.waiting > 0 then
    raise (Deadlock (String.concat ", " (List.sort compare (blocked_names t))))

let run_until t horizon =
  t.horizon.(0) <- horizon;
  (try drain_until t horizon
   with e ->
     settle t;
     raise e);
  settle t;
  if t.clock.(0) < horizon then t.clock.(0) <- horizon

let fiber_count t = t.live

let events_processed t = t.processed

let next_event_time t =
  if t.rtail <> t.rhead then Some t.clock.(0)
  else if Equeue.is_empty t.events then None
  else Some t.events.Equeue.ts.(0)

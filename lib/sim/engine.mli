(** Discrete-event simulation engine with lightweight processes.

    Simulated processes ("fibers") are plain OCaml functions that may call
    the blocking operations of this module ({!delay}, {!suspend}) and of
    the synchronisation primitives built on top of them ({!Ivar},
    {!Resource}). Blocking is implemented with OCaml 5 effect handlers:
    the fiber's continuation is captured and resumed by a later event, so
    simulated code reads like straight-line systems code.

    Time is virtual, a [float] in seconds. Events scheduled for the same
    instant fire in FIFO order, which makes runs deterministic. *)

type fiber
(** A spawned simulated process (engine-internal; named here only
    because {!Equeue.job} carries it). *)

(** The engine's specialised event queue: a binary min-heap on
    (time, seq) as parallel arrays — unboxed float times, int seqs and a
    payload column — so pushes and pops allocate nothing. Exposed for
    the property tests, which replay random sequences against the
    generic [Acfc_oracle.Heap] (a test- and bench-only library). *)
module Equeue : sig
  type job =
    | Nop
    | Thunk of (unit -> unit)
    | Run of fiber  (** a fiber's start or wake-up *)

  type t

  val create : unit -> t

  val length : t -> int

  val is_empty : t -> bool

  val push : t -> time:float -> seq:int -> job -> unit
  (** Ties on [time] pop in ascending [seq] order; the engine feeds a
      globally increasing seq, making same-instant events FIFO. *)

  val top_time : t -> float
  (** Raises [Invalid_argument] when empty. *)

  val pop : t -> job
  (** Pop the least (time, seq) job. Raises [Invalid_argument] when
      empty. *)
end

type t
(** A simulation instance: virtual clock plus pending-event queue.

    Internally events live in an {!Equeue} plus a ready ring: a callback
    scheduled for the current instant when nothing pending could run
    before it skips the heap entirely, so batched completions (an ivar
    broadcast, a disk queue handoff) cost one ring slot per waiter
    instead of one heap operation each. *)

exception Deadlock of string
(** Raised by {!run} when fibers remain blocked but no event can ever
    wake them. The payload names the stuck fibers. *)

val create : unit -> t

val now : t -> float
(** Current virtual time in seconds. *)

val set_obs : t -> Acfc_obs.Sink.t option -> unit
(** Install the observability sink. The engine points the sink's clock
    at its own virtual clock (every event emitted anywhere in the
    machine is then stamped with simulated time), registers gauges for
    the scheduler (clock, live/waiting fibers, processed and pending
    events), and emits a {!Acfc_obs.Trace.Fiber} event per fiber spawn
    and finish. *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** [schedule t ~at f] runs callback [f] at virtual time [at]. [at] may
    not be in the past. Callbacks must not block; use {!spawn} for code
    that does. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** [spawn t f] starts a new fiber running [f] at the current virtual
    time. [name] is used in {!Deadlock} diagnostics. *)

val delay : t -> float -> unit
(** [delay t dt] blocks the calling fiber for [dt] seconds of virtual
    time. [dt] must be non-negative. Must be called from a fiber.

    When the wake time is strictly before every pending event, the
    ready ring is empty, the wake time is within the running {!run} or
    {!run_until} horizon, and the fiber was started or woken by the
    event loop itself (not resumed from inside other code), the sleep
    is fast-forwarded: the clock advances in place and the fiber keeps
    running, without queueing a wake-up. The sleep still counts as one
    processed event, and the firing order is unchanged: the queued wake
    would have been the very next event. *)

val suspend : t -> ((unit -> unit) -> unit) -> unit
(** [suspend t register] blocks the calling fiber and hands a one-shot
    [resume] thunk to [register]. Invoking [resume] (typically from a
    scheduled event or another fiber) continues the fiber at the
    then-current virtual time; invoking it again raises
    [Invalid_argument]. This is the primitive from which ivars and
    resources are built. Scheduling [resume] itself as the event
    ([schedule t ~at resume], not a closure that calls it) lets the
    resumed fiber's next {!delay} be fast-forwarded. *)

val run : t -> unit
(** Run until no events remain. Raises {!Deadlock} if blocked fibers
    remain when the event queue drains. Exceptions escaping a fiber
    propagate out of [run]. *)

val run_until : t -> float -> unit
(** [run_until t horizon] processes events up to and including time
    [horizon], then stops (without deadlock detection). *)

val fiber_count : t -> int
(** Number of fibers spawned and not yet finished. *)

val events_processed : t -> int
(** Total events executed so far (a cheap progress/cost metric). *)

val next_event_time : t -> float option
(** Time of the earliest pending event (ready-ring entries are due at
    the current instant), or [None] when nothing is pending. Lets a
    coordinator running several engines under {!run_until} skip epochs
    in which no engine has work. Boxes its result — a barrier-rate
    operation, not for the per-event path. *)

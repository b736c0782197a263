(** Indexed pending-request queue for the disk's dispatch decision.

    Replaces the per-completion fold/filter over an unsorted waiter list
    with an O(1) FIFO (FCFS) or an address-sorted map with per-address
    FIFOs (SCAN), reproducing the original picker's choices exactly:
    minimum arrival order for FCFS; nearest address in the sweep
    direction, ties to the oldest arrival, reversing the sweep when the
    direction is empty, for SCAN. See docs/PERF.md for the measured
    effect. *)

type discipline = Fcfs | Scan

type 'a t

val create : discipline -> 'a t

val discipline : 'a t -> discipline

val length : 'a t -> int
(** Waiters currently queued. O(1). *)

val is_empty : 'a t -> bool

val sweep_up : 'a t -> bool
(** Current SCAN sweep direction (true for FCFS queues, where it is
    never consulted). *)

val add : 'a t -> addr:int -> 'a -> unit
(** Enqueue a waiter for block address [addr]. Arrival order is the
    [add] order. O(1) for FCFS, O(log n) for SCAN. *)

val pick : 'a t -> head:int -> 'a option
(** Remove and return the waiter the drive serves next, given the head
    parked at block [head]; [None] iff the queue is empty. May reverse
    the sweep direction (SCAN). O(1) for FCFS, O(log n) for SCAN. *)

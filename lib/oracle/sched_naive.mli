(** The disk's original unsorted-list picker, kept verbatim as the
    reference for {!Acfc_disk.Sched_queue}: same [add]/[pick] contract,
    O(n) per pick. *)

type 'a t

val create : Acfc_disk.Sched_queue.discipline -> 'a t

val length : 'a t -> int

val sweep_up : 'a t -> bool

val add : 'a t -> addr:int -> 'a -> unit

val pick : 'a t -> head:int -> 'a option

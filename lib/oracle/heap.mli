(** Array-backed binary min-heap.

    The generic reference the engine's specialised event queue
    ([Acfc_sim.Engine.Equeue]) is property-tested against; test- and
    bench-only. *)

type 'a t

val create : leq:('a -> 'a -> bool) -> unit -> 'a t
(** [create ~leq ()] makes an empty heap ordered by [leq] (total
    preorder; [leq a b] means [a] is at least as urgent as [b]). *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Minimum element, if any, without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum element. *)

val pop_exn : 'a t -> 'a
(** Like {!pop}. Raises [Invalid_argument] on an empty heap. *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** All elements in unspecified order. *)

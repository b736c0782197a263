(** Indexed binary min-heaps over int slots.

    A {!store} holds per-slot columns: two int keys, ordered
    lexicographically ([hi] first, then [lo]), and the slot's position
    in its heap. A heap holds only its array of slots, so many heaps may
    share one store, provided each slot is in at most one of them.
    Insertion, removal and re-keying of any member are O(log n);
    nothing is allocated except when a heap array or a column grows. *)

type store = private {
  mutable hi : int array;  (** slot -> primary key *)
  mutable lo : int array;  (** slot -> secondary key *)
  mutable at : int array;  (** slot -> index in its heap, [-1] in none *)
}

type t

val store : int -> store
(** [store n] has columns for slots [0, n). *)

val reserve : store -> int -> unit
(** [reserve st n] widens the columns to at least [n] slots. *)

val create : int -> t
(** An empty heap with room for [n] slots; it grows on demand. *)

val length : t -> int

val is_empty : t -> bool

val top : t -> int
(** The slot with the smallest [(hi, lo)]. Raises [Invalid_argument] on
    an empty heap. *)

val add : store -> t -> int -> hi:int -> lo:int -> unit
(** Insert a slot that is in no heap of the store, with its keys. *)

val rekey : store -> t -> int -> hi:int -> lo:int -> unit
(** Change the keys of a member of the heap. *)

val remove : store -> t -> int -> unit
(** Remove a member of the heap. *)

(** Doubly-linked list with O(1) removal via external node handles.

    The record twins' kernel LRU list and per-priority-level lists are
    instances of this structure (the columnar core uses
    {!Acfc_core.Ilist}). By convention throughout the cache, the
    {e front} of a list is the most-recently-used end and the {e back}
    is the least-recently-used end.

    Each [push_*] returns a node handle; all node-taking operations
    check that the node currently belongs to the given list and raise
    [Invalid_argument] otherwise (a node is "detached" after {!remove}
    and may not be reused). *)

type 'a t

type 'a node

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val value : 'a node -> 'a

val push_front : 'a t -> 'a -> 'a node

val push_back : 'a t -> 'a -> 'a node

val remove : 'a t -> 'a node -> unit

val move_front : 'a t -> 'a node -> unit

val move_back : 'a t -> 'a node -> unit

val front : 'a t -> 'a node option

val back : 'a t -> 'a node option

val next_toward_front : 'a node -> 'a node option
(** Walk from the back (LRU end) toward the front; [None] at the front.
    Used by victim selection to skip unevictable blocks. *)

val next_toward_back : 'a node -> 'a node option

val swap_values :
  on_move:('a -> 'a node -> unit) -> 'a t -> 'a node -> 'a node -> unit
(** [swap_values ~on_move t a b] exchanges the positions of the two
    values held by nodes [a] and [b] (by swapping the values, which is
    O(1) and immune to adjacency corner cases). [on_move v n] is called
    for each value with the node that now holds it, so callers that keep
    back-pointers from values to nodes can repair them. This implements
    the "swapping" step of LRU-SP. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Front (MRU) to back (LRU). *)

val to_list : 'a t -> 'a list
(** Front to back. *)

val contains : 'a t -> 'a node -> bool
(** Does this node currently belong to this list? *)

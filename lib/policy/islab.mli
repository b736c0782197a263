(** One recency list of blocks on columnar storage.

    Free-listed slots over an {!Acfc_core.Ilist} store with an
    {!Acfc_core.Itbl} index keyed by {!Acfc_core.Block.pack}. The front
    is the most recently pushed or moved block. Every operation is O(1)
    and allocation-free at steady state. A block may be in the list at
    most once: callers check {!mem} before {!push_front}. *)

module Block = Acfc_core.Block

type t

val create : int -> t
(** [create n] sizes the slab for about [n] blocks; it grows on demand. *)

val mem : t -> Block.t -> bool

val push_front : t -> Block.t -> unit

val move_front : t -> Block.t -> unit
(** Raises [Failure] if the block is not in the list. *)

val remove : t -> Block.t -> unit
(** No-op if the block is not in the list. *)

val is_empty : t -> bool

val length : t -> int

val front : t -> Block.t
(** Raises [Invalid_argument] on an empty list. *)

val back : t -> Block.t

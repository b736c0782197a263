(** In-cache block descriptor of the record twins, shared between
    {!Buf_ref} and {!Acm_ref}.

    The record is deliberately transparent: BUF and ACM are two halves
    of one kernel subsystem (the paper splits the Ultrix buffer-cache
    code into exactly these two modules) and both manipulate entries
    directly. Nothing outside this oracle library sees this type. *)

type t = {
  key : Block.t;
  mutable owner : Pid.t;  (** process the block is currently charged to *)
  mutable dirty : bool;
  mutable pinned : int;  (** >0 while I/O is in flight; unevictable *)
  mutable referenced : bool;
      (** has the block been demand-referenced at least once? False only
          for read-ahead blocks awaiting their first use; victim
          selection avoids these while referenced blocks exist, the way
          a real kernel protects not-yet-consumed read-ahead pages *)
  mutable clock_ref : bool;
      (** CLOCK reference bit, used only under {!Config.Clock_sp} *)
  mutable global_node : t Dll.node option;  (** position in BUF's LRU list *)
  mutable level_node : t Dll.node option;  (** position in a manager level list *)
  mutable level : int;  (** current priority level *)
  mutable temp : bool;  (** [level] is a temporary priority *)
  mutable managed_by : Pid.t option;  (** manager whose lists hold it *)
  mutable incoming_placeholders : (Block.t, unit) Hashtbl.t option;
      (** keys of placeholders whose target is this entry, as a set;
          [None] until the first placeholder arrives. Manipulate through
          the [*_incoming] helpers below, which give O(1) add, remove
          and membership (an entry can be the target of many
          placeholders, and eviction must drop them all) *)
}

val make : key:Block.t -> owner:Pid.t -> t
(** Fresh unlinked entry: clean, unpinned, level 0, unmanaged. *)

val add_incoming : t -> Block.t -> unit
(** Record a placeholder key targeting this entry (idempotent). *)

val remove_incoming : t -> Block.t -> unit

val has_incoming : t -> Block.t -> bool

val iter_incoming : (Block.t -> unit) -> t -> unit
(** Iteration order is unspecified; callers must not let it reach
    observable results. *)

val clear_incoming : t -> unit

val is_pinned : t -> bool

val pin : t -> unit

val unpin : t -> unit
(** Raises [Invalid_argument] if not pinned. *)

val pp : Format.formatter -> t -> unit

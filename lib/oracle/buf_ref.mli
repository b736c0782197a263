(** The buffer cache module (BUF).

    BUF "handles cache management and bookkeeping and implements the
    allocation policy" (paper Sec. 4): the block table, the kernel's
    global LRU list, and — for LRU-SP — the swapping and placeholder
    machinery. On replacement it picks a candidate and asks {!Acm_ref}
    which block the candidate's manager actually wants to give up.

    Replacement walk (paper Sec. 4, for {!Config.Lru_sp}):
    + if the missing block has a placeholder, the block the placeholder
      points to becomes the candidate (and the manager that caused the
      placeholder is charged a mistake); otherwise the candidate is the
      LRU-end block;
    + the candidate's manager is consulted ([Acm_ref.replace_block]) and may
      overrule with a block of its own;
    + on overrule the two blocks swap positions in the global LRU list
      and a placeholder for the evicted block, pointing at the surviving
      candidate, is installed.

    The other {!Config.alloc_policy} values disable the corresponding
    steps. *)

type t

exception Cache_busy
(** Raised when every cached block is pinned by in-flight I/O and no
    victim can be chosen. Callers inside a simulation should back off
    and retry; it cannot happen unless concurrent I/Os ≥ cache size. *)

val create : Config.t -> acm:Acm_ref.t -> backend:Backend.t -> t

val set_tracer : t -> (Event.t -> unit) option -> unit
(** Also installs the tracer on the underlying {!Acm_ref}. *)

(** {2 Data path} *)

val read : ?prefetch:bool -> t -> pid:Pid.t -> Block.t -> [ `Hit | `Miss ]
(** Reference a block for reading; on a miss, makes room (replacement),
    inserts the block and fetches it through the backend. [prefetch]
    (default false) marks a read-ahead: the block is installed without
    recency (see {!Acm_ref.new_block}). *)

val write : t -> pid:Pid.t -> Block.t -> fetch:bool -> [ `Hit | `Miss ]
(** Reference a block for writing, marking it dirty. On a miss the
    block is installed without device traffic unless [fetch] is true
    (read-modify-write for partial-block writes). *)

val sync : t -> ?file:Block.file -> unit -> int
(** Write back every dirty block (of [file] if given); returns how many
    backend write-backs were issued (a backend doing clustered
    write-back may clean several blocks per call via
    {!take_dirty_followers}). *)

val invalidate_file : t -> file:Block.file -> int
(** Drop all cached blocks of a deleted file, dirty ones included,
    without writing them back. Pinned blocks are skipped. Returns the
    number of blocks dropped. *)

val length : t -> int

(** {2 Statistics} *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val writebacks : t -> int
val overrule_count : t -> int
val placeholders_created : t -> int
val placeholders_used : t -> int
val placeholder_count : t -> int
(** Placeholders currently installed. *)

(** {2 Testing support} *)

val lru_keys : t -> Block.t list
(** Global LRU list, MRU end first. *)

val check_invariants : t -> unit
(** Raise [Failure] on any broken invariant, including {!Acm_ref}'s. *)

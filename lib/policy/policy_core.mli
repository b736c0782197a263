(** The unified eviction-decision core.

    One replacement policy = one state machine over typed cache events.
    The same state answers victim queries for the offline trace-replay
    loop ({!replay}, behind [Acfc_replacement.Policy_sim]) and for the
    live two-level kernel (installed as an [fbehavior] manager plug-in
    through {!Live} / [Control.set_plugin]) — by construction the two
    feed the machine the identical event sequence for the same demand
    stream, so both produce the identical victim sequence. That
    determinism contract is asserted in [test/test_policy_core.ml].

    Events carry the reference position [pos]: the index of the current
    reference in the demand stream. The replay loop and {!Live} number
    references the same way (hits and miss-admissions each consume one
    position), which is what lets position-keyed policies (LRU-2, OPT)
    replay identically at both levels.

    Positions strictly increase: every {!Reference} and {!Admit} carries
    a larger [pos] than any event before it, and a {!CORE.victim} query's
    [pos] is larger than every position fed so far (it is the position
    the paired [Admit] will carry). Positions need not be consecutive.
    Cores may rely on this: AWRP keeps each frequency bucket ordered by
    last reference simply by pushing to the front. *)

module Block = Acfc_core.Block

type event =
  | Reference of { pos : int; block : Block.t }
      (** The resident [block] was referenced (a cache hit). *)
  | Admit of { pos : int; block : Block.t }
      (** [block] just entered the cache (a miss, after any eviction). *)
  | Evict of { block : Block.t }
      (** [block] left the cache to make room. Usually the block the
          core just named in {!CORE.victim}, but a kernel may overrule;
          cores must tolerate eviction of any resident block. *)
  | Invalidate of { block : Block.t }
      (** [block] left the cache because its contents died (file
          invalidation) — not a replacement decision, so adaptive cores
          must not learn from it (no ghost entry). *)
  | Hint of { block : Block.t; level : int }
      (** Advisory priority-level hint for [block]; cores may fold it
          into their ranking (the perceptron uses it as a feature) or
          ignore it. *)

module type CORE = sig
  type t

  val name : string
  (** Registry name, uppercase (e.g. "LRU", "ARC"). *)

  val summary : string
  (** One-line description for [acfc-run policy list]. *)

  val adaptive : bool
  (** True for the learned policies (ARC/AWRP/PERCEPTRON). *)

  val needs_future : bool
  (** True when {!create} requires the full future reference stream
      (OPT). Such cores cannot run as live managers. *)

  val create : capacity:int -> future:Block.t array -> t
  (** [future] is the demand stream for clairvoyant policies; online
      policies ignore it (the live adapter passes [[||]]). *)

  val on_event : t -> event -> unit

  val victim : t -> pos:int -> missing:Block.t -> Block.t
  (** Name a resident block to give up so [missing] can be admitted at
      reference position [pos]. Called only when the cache is full;
      the caller evicts the returned block (or, for a live kernel that
      overrules, some other resident) and reports it back as
      {!Evict}. *)

  val stats : t -> (string * float) list
  (** Introspection for tests and reports (adaptation targets, ghost
      sizes, learned weights). *)
end

val replay :
  (module CORE) ->
  capacity:int ->
  evicted:(int -> Block.t -> unit) ->
  Block.t array ->
  int
(** [replay core ~capacity ~evicted trace] drives [core] over the demand
    stream [trace] with [capacity] frames and returns the hit count (the
    miss count is the rest). The core is created with [trace] as its
    future. A hit feeds {!Reference}; a miss on a full cache asks
    {!CORE.victim}, removes the victim, calls [evicted pos victim] and
    feeds {!Evict}; every miss then feeds {!Admit}. This is the one
    offline replay loop: [Policy_sim.run] passes a no-op [evicted], and
    the oracle comparisons collect the victim sequence with it. Raises
    [Invalid_argument] on non-positive capacity and [Failure] if the
    core names a non-resident victim. *)

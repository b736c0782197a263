(** Block reference traces and synthetic trace generators.

    The companion simulation study ([3], USENIX Summer '94) evaluates
    replacement policies on reference traces; this module provides the
    traces. Generators cover the access patterns the paper's interface
    was designed for (Sec. 3): sequential single-pass, cyclic, hot/cold,
    and random. *)

type t = Acfc_core.Block.t array

val sequential : file:int -> blocks:int -> t
(** One pass over [blocks] blocks of [file]. *)

val cyclic : file:int -> blocks:int -> passes:int -> t
(** [passes] sequential passes over the same blocks — the cscope /
    dinero pattern, where MRU beats LRU whenever the file exceeds the
    cache. *)

val random : rng:Acfc_sim.Rng.t -> file:int -> blocks:int -> length:int -> t
(** Uniformly random references. *)

val hot_cold :
  rng:Acfc_sim.Rng.t ->
  hot_file:int ->
  hot_blocks:int ->
  cold_file:int ->
  cold_blocks:int ->
  hot_fraction:float ->
  length:int ->
  t
(** Each reference goes to a uniformly-chosen hot block with probability
    [hot_fraction], else to a uniformly-chosen cold block — the postgres
    index/data pattern. *)

val zipf : rng:Acfc_sim.Rng.t -> file:int -> blocks:int -> skew:float -> length:int -> t
(** Zipf-distributed references with exponent [skew] > 0. *)

val patterns : string list
(** The names {!pattern} accepts, in the order [acfc-run policies]
    documents them. *)

val pattern : rng:Acfc_sim.Rng.t -> blocks:int -> string -> t
(** The named synthetic trace of [acfc-run policies] over [blocks]
    blocks: [cyclic] (five passes), [sequential] (one pass), and
    [random], [hot-cold] (10% hot blocks, at least one, in file 0 take
    90% of the references, the cold ones are in file 1) and [zipf]
    (skew 1.0),
    each [5 * blocks] long. Raises [Failure] on an unknown name. *)

val concat : t list -> t

val interleave : rng:Acfc_sim.Rng.t -> t list -> t
(** Random fair merge preserving each trace's internal order — a crude
    model of concurrent processes sharing a cache. *)

val working_set_size : t -> int
(** Number of distinct blocks. *)

val pp_summary : Format.formatter -> t -> unit

(** Lockstep replay: columnar cache vs its record-based twin.

    The columnar rewrite ({!Ctab}/{!Ilist}/{!Itbl} under {!Buf}/{!Acm})
    keeps the original record implementations alive as {!Buf_ref} /
    {!Acm_ref} / {!Cache_ref}. This module drives both caches through an
    identical operation sequence and compares everything observable
    after every step: the emitted {!Event.t} stream, each operation's
    result, and (periodically and at the end) the full statistics,
    global LRU order, per-level block orders and structural invariants.

    `bench check` replays a recorded workload trace, a wirgen corpus
    and a seeded control-path storm through [run]; the property tests
    replay random op sequences. A [divergence] pinpoints the first step
    at which the two implementations disagree. *)

(** One cache operation, applied identically to both implementations.
    Control-path ops mirror the [fbehavior] interface; [Set_chooser]
    installs the same (deterministic) closure in both caches. *)
type op =
  | Read of { pid : Pid.t; block : Block.t; prefetch : bool }
  | Write of { pid : Pid.t; block : Block.t; fetch : bool }
  | Sync of Block.file option
  | Invalidate_file of Block.file
  | Register_manager of Pid.t
  | Unregister_manager of Pid.t
  | Set_priority of { pid : Pid.t; file : Block.file; prio : int }
  | Set_policy of { pid : Pid.t; prio : int; policy : Policy.t }
  | Set_temppri of {
      pid : Pid.t;
      file : Block.file;
      first : int;
      last : int;
      prio : int;
    }
  | Set_chooser of {
      pid : Pid.t;
      chooser :
        (candidate:Block.t -> resident:Block.t list -> Block.t option) option;
    }

type divergence = {
  step : int;  (** 0-based index into the op array *)
  op : string;  (** the op at [step], rendered *)
  what : string;  (** which observation disagreed *)
  columnar : string;  (** what the columnar cache said *)
  reference : string;  (** what the record twin said *)
}

val pp_divergence : Format.formatter -> divergence -> unit

val run : ?deep_every:int -> Config.t -> op array -> (int, divergence) result
(** [run config ops] builds one columnar {!Cache} and one {!Cache_ref}
    from [config] and applies every op to both. Per step it compares
    the op's result and the traced event stream; every [deep_every]
    steps (default 512) and at the end it additionally compares
    statistics, LRU order, touched per-level orders, and runs both
    implementations' [check_invariants]. Returns [Ok steps] when the
    whole sequence agrees, or [Error d] describing the first
    divergence. *)

val of_references : ?pid:Pid.t -> Block.t array -> op array
(** Demand-read ops over a block trace, all from one process. *)

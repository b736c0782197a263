(** Live metrics streaming: an append-only JSONL feed a detached
    observer can tail while the simulation is still running.

    The producer side appends one self-contained JSON object per line
    to a sink file ([acfc-monitor/1]): a [start] record, then a
    [snapshot] record per sample (the full {!Metrics.snapshot}
    document), then an [end] record. Every line is flushed as soon as
    it is written, so a concurrent reader sees each sample as it
    happens.

    The consumer side ({!follow}) tails such a file with follow
    semantics — reading records as they are appended, polling on EOF —
    until the [end] record, the callback stops it, or no new data
    arrives within a timeout. {!renderer} turns the event stream into
    the human-readable view [acfc-run monitor] prints: per-client
    fleet gauges and cache hit-rate deltas between consecutive
    snapshots. *)

val schema : string
(** ["acfc-monitor/1"]. *)

(** {2 Producing} *)

type producer

val producer : path:string -> ?scenario:string -> unit -> producer
(** Truncate/create [path] and write the [start] record, naming the
    scenario's hash when given. *)

val sample : producer -> metrics:Metrics.t -> now:float -> unit
(** Append one [snapshot] record and flush. *)

val finish : producer -> now:float -> unit
(** Append the [end] record and close the file. Idempotent. *)

val records : ?scenario:string -> Metrics.t -> now:float -> Json.t list
(** The [start], [snapshot] and [end] records a producer sampling once
    at [now] writes, as values (the fuzz harness corrupts them). *)

(** {2 Consuming} *)

type snapshot = { now : float; gauges : (string * float) list }
(** A {!Metrics.snapshot} document's clock and gauges, in document
    order; its counters and histograms are checked, not kept. *)

type event =
  | Start of { scenario : string option }
  | Snapshot of snapshot
  | End of { now : float }  (** the final simulated clock *)

val parse_line : string -> (event, string) result
(** Decode one record with {!Json.Decode}: strict (unknown, repeated or
    mistyped members fail), errors name the [$.path]
    (["monitor: unknown record type \"x\" at $.type"]). A snapshot's
    [counters], [gauges] and [histograms] may be absent. *)

val follow :
  path:string ->
  ?poll_s:float ->
  ?timeout_s:float ->
  on_event:(event -> [ `Continue | `Stop ]) ->
  unit ->
  (unit, string) result
(** Tail [path]: wait (up to [timeout_s], default 10s) for the file to
    appear, then deliver each complete line's event in order, polling
    every [poll_s] (default 20ms) at EOF. Returns [Ok ()] once the
    [end] record is seen or the callback answers [`Stop]; errors on a
    malformed line or on [timeout_s] without new data. *)

(** {2 Rendering} *)

type renderer

val renderer : unit -> renderer

val render : renderer -> Format.formatter -> event -> unit
(** Render one event: run header for [Start]; for each [Snapshot] the
    cache hit-rate line (with the delta against the previous snapshot)
    and, when fleet gauges are present, one line per client; a summary
    for [End]. Stateful — feed events in stream order. *)

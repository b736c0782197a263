(** Regression timeline over stored [acfc-bench/1] reports.

    Scans a store's bench-report entries in ingestion order, extracts
    each report's "perf" rows, and groups them by row name into one
    timeline per benchmark — ops/sec and allocation words/op across
    runs. A {e drop} is a decrease in ops/sec from one stored run to
    the next on the same row; rows whose worst consecutive drop
    exceeds a threshold (default 30%) are regressions, and
    [bench timeline] fails on them. *)

type point = {
  seq : int;  (** manifest ingestion sequence of the source report *)
  digest : string;  (** digest of the source report *)
  ops_per_sec : float;
  words_per_op : float;
}

type row = {
  name : string;  (** perf row name, e.g. ["fig5/lru-sp"] *)
  points : point list;  (** ascending [seq] order *)
}

val default_threshold : float
(** [0.30]. *)

val of_report : Acfc_obs.Json.t -> ((string * float * float) list, string) result
(** Perf rows of one [acfc-bench/1] document ({!Bench_report.of_json})
    as [(name, ops_per_sec, words_per_op)]; rows whose ops/sec is null
    are skipped. Fails on a non-bench or malformed document, naming the
    [$.path]. *)

val scan : Store.t -> (row list, string) result
(** Build timelines from every readable bench report in the store,
    rows sorted by name. Corrupted or malformed stored reports fail
    the scan (the store is supposed to be audited). *)

val worst_drop : row -> (float * int) option
(** Largest consecutive fractional ops/sec drop on a row, with the
    [seq] of the run it dropped to. [None] for rows with fewer than
    two points or no drop at all. *)

val regressions : ?threshold:float -> row list -> (row * float * int) list
(** Rows whose {!worst_drop} exceeds [threshold]. *)

val render : ?threshold:float -> Format.formatter -> row list -> unit
(** Human-readable per-row timeline with regression markers. *)

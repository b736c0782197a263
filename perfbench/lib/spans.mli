(** In-memory spans recorded around calls into the simulator's layers.

    A span has a name, a start and end on the host clock, and the span
    that was open when it began. Spans are kept in memory while the
    benchmark runs and written out once at the end, so recording costs
    one allocation per span and no I/O inside a measurement. *)

type span = { id : int; name : string; parent : int option; start : float; stop : float }

type t

val create : ?clock:(unit -> float) -> unit -> t
(** [clock] defaults to [Unix.gettimeofday]. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a new span, a child of the innermost open one.
    The span is closed even if the thunk raises. *)

val spans : t -> span list
(** Closed spans, in the order they were opened. *)

val duration : span -> float

val self_time : span list -> span -> float
(** The span's duration minus the part of its interval covered by its
    direct children (overlapping children are counted once). *)

val self_by_name : span list -> (string * float) list
(** Self time summed per span name, names in first-opened order. *)

val to_json : span -> string
(** One JSON object: [{"id":…,"name":…,"parent":…,"start":…,"end":…}]. *)

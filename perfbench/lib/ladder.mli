(** The per-layer cost ladder: one demand stream measured at successive
    rungs, so a layer's cost is the difference between two rungs.

    The machine rung is an untraced whole-machine run of a cell; the
    core rung replays the same cell's recorded reference stream through
    a bare cache. Everything between the two — the workload environment,
    file system, disk model and simulation fibers — is the stack. *)

type rung = { ns : float; words : float; refs : int }
(** Host nanoseconds and minor-heap words spent on [refs] references. *)

val zero : rung

val add : rung -> rung -> rung

val per_ref : rung -> float * float
(** [(ns per ref, words per ref)]; [(0, 0)] for an empty rung. *)

val stack : machine:rung -> core:rung -> rung
(** [machine − core], over the machine rung's references. *)

(** The host's current speed, from a fixed probe timed between the
    benchmark's operations.

    The benchmark's host shares its cores and memory system with other
    tenants, whose load makes the same code run up to 2x slower for
    minutes at a time. The probe — a small hash-table cache with FIFO
    eviction over a fixed reference string, written here and calling
    nothing of the simulator — slows down with it. An operation's wall
    time divided by the probe's duration around it, times
    {!reference_s}, is the time it would have taken on a host where the
    probe takes {!reference_s}: the host's load cancels, and a change to
    the simulator does not, because the probe runs none of its code. *)

val reference_s : float
(** The probe's nominal duration: 5 ms. *)

val probe : unit -> float
(** Run the probe once; its host seconds. *)

val scale : before:float -> after:float -> float -> float
(** [scale ~before ~after wall] is [wall] at reference speed, given the
    probe's durations just before and just after it. *)

val radius : int
(** How many probes on each side of an operation {!normalise} looks
    at: 5. *)

val normalise : probes:float array -> float array -> float array
(** [normalise ~probes walls]: operation [i]'s wall time at reference
    speed, where [probes.(i)] ran just after operation [i]. The host's
    speed around operation [i] is the median of the probes from
    [i - radius] to [i + radius], so that one probe's noise does not
    carry into one operation. Raises [Invalid_argument] if the arrays
    differ in length. *)

(** {2 Probing between operations} *)

val start : unit -> unit
(** From now on every {!tick} runs the probe and records its duration. *)

val tick : unit -> unit
(** Called after each timed operation. *)

val stop : unit -> float array
(** Stop probing; the durations recorded since {!start}, in order. *)

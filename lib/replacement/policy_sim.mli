(** Trace-driven replacement-policy simulator.

    A pluggable framework in the style of the companion paper's
    simulation study: the framework maintains the resident set; a
    policy observes accesses and chooses victims. Policies may inspect
    the whole trace (OPT does); online policies ignore it. *)

module type POLICY = Acfc_policy.Policy_core.CORE
(** A policy is a decision core; the registered ones are
    {!Acfc_policy.Registry.all}. *)

type result = {
  policy : string;
  capacity : int;
  references : int;
  hits : int;
  misses : int;
}

val run : (module POLICY) -> capacity:int -> Trace.t -> result
(** Simulate the policy over the trace with [capacity] frames through
    {!Acfc_policy.Policy_core.replay}. Raises [Invalid_argument] if
    [capacity] is not positive, or [Failure] if the policy returns a
    non-resident victim. *)

val miss_ratio : result -> float

val pp_result : Format.formatter -> result -> unit

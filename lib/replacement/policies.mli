(** The policy registry under its lab name: every core in
    {!Acfc_policy.Cores}, addressable as a {!Policy_sim.POLICY}. *)

include module type of Acfc_policy.Registry

(** Stock and adaptive replacement policies for the trace-driven
    simulator — the offline faces of the unified policy cores in
    {!Acfc_policy.Cores} (the live faces are {!Acfc_policy.Live}).

    [Lru] and [Mru] are the two policies the paper's interface offers
    applications; [Opt] is Belady's offline-optimal algorithm, the
    yardstick the companion paper proposes application policies should
    approximate; the rest are classic baselines plus the three adaptive
    policies from the related work. *)

module Lru : Policy_sim.POLICY

module Mru : Policy_sim.POLICY

module Fifo : Policy_sim.POLICY

module Clock : Policy_sim.POLICY
(** Second-chance / CLOCK. *)

module Lru_2 : Policy_sim.POLICY
(** LRU-K with K = 2 (O'Neil et al., SIGMOD '93 — cited by the paper as
    related database work). Victim is the resident block whose
    second-most-recent reference is oldest. *)

module Two_q : Policy_sim.POLICY
(** Simplified full 2Q (Johnson & Shasha, VLDB '94): a FIFO probation
    queue for new pages, a ghost queue of recent evictees, and a
    protected LRU queue for pages re-referenced after probation. *)

module Rand : Policy_sim.POLICY
(** Uniform random victim (deterministically seeded). *)

module Opt : Policy_sim.POLICY
(** Belady's optimal offline policy: evict the resident block whose
    next use is farthest in the future. A lower bound on misses for
    every demand-paged policy. *)

module Arc : Policy_sim.POLICY
(** Adaptive Replacement Cache: recency/frequency lists with
    ghost-directed balance adaptation. *)

module Awrp : Policy_sim.POLICY
(** Adaptive Weight Ranking Policy (arXiv:1107.4851): weighted
    frequency+recency ranking with an online-adapted mix. *)

module Perceptron : Policy_sim.POLICY
(** LearnedCache-style perceptron eviction: learned linear scoring of
    recency/frequency/level/file features, trained on ghost hits. *)

val of_core : (module Acfc_policy.Policy_core.CORE) -> (module Policy_sim.POLICY)
(** The offline face of any core, e.g. a scan twin from {!Reference}. *)

val all : (module Policy_sim.POLICY) list
(** Every registered policy, in registry order: the stock eight
    ([Opt] last) followed by [Arc], [Awrp], [Perceptron]. *)

val by_name : string -> ((module Policy_sim.POLICY), string) result
(** Case-insensitive registry lookup. The error message lists the
    valid names and suggests a near match — see
    {!Acfc_policy.Registry.find}. *)

(** The replacement cores. [Lru] and [Mru] are the two policies the
    paper's interface offers applications; [Opt] is Belady's
    offline-optimal algorithm, the yardstick the companion paper
    proposes application policies should approximate; the rest are
    classic baselines plus the three adaptive policies from the related
    work.

    Stock eight (victim behaviour pinned by the record twins that
    `bench check` replays against them): *)

module Lru : Policy_core.CORE

module Mru : Policy_core.CORE

module Fifo : Policy_core.CORE

module Clock : Policy_core.CORE
(** Second-chance / CLOCK. *)

module Lru_2 : Policy_core.CORE
(** LRU-K with K = 2 (O'Neil et al., SIGMOD '93 — cited by the paper as
    related database work). Victim is the resident block whose
    second-most-recent reference is oldest. *)

module Rand : Policy_core.CORE
(** Uniform random victim (deterministically seeded). *)

module Opt : Policy_core.CORE
(** Belady's optimal offline policy: evict the resident block whose
    next use is farthest in the future. A lower bound on misses for
    every demand-paged policy. Needs the future stream, so it runs
    offline only. *)

module Two_q : Policy_core.CORE
(** Simplified full 2Q (Johnson & Shasha, VLDB '94): a FIFO probation
    queue for new pages, a ghost queue of recent evictees, and a
    protected LRU queue for pages re-referenced after probation. *)

(** Adaptive three: *)

module Arc : Policy_core.CORE
(** Adaptive Replacement Cache: recency/frequency lists with
    ghost-directed balance adaptation. *)

module Awrp : Policy_core.CORE
(** Adaptive Weight Ranking Policy (arXiv:1107.4851): weighted
    frequency+recency ranking with an online-adapted mix. *)

module Perceptron : Policy_core.CORE
(** LearnedCache-style perceptron eviction: learned linear scoring of
    recency/frequency/level/file features, trained on ghost hits. *)

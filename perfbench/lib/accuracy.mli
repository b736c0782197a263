(** How far the simulated machine sits from the paper's measurements. *)

val paper_io_err : (string * float * float) list -> float
(** Mean absolute difference between measured and published
    LRU-SP/original block-I/O ratios (paper Table 6) over
    [(app, cache MB, measured ratio)] cells. Raises [Invalid_argument]
    on an empty list or a cell Table 6 does not cover. *)

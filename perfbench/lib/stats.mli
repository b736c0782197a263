(** Order statistics for run-to-run figures. *)

val median : float list -> float
(** Raises [Invalid_argument] on an empty list. *)

val quartiles : float list -> float * float * float
(** First, second and third quartile, computed exactly as Python's
    [statistics.quantiles(values, n=4)] (the "exclusive" method).
    Raises [Invalid_argument] on fewer than two values. *)

val spread : float list -> float
(** Interquartile distance as a share of the median. *)

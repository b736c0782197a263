(** Committed bench gates and their one evaluator.

    A gate file holds one gate per line ('#' starts a comment):

    {v
    ratio  <row> <twin-row> <x>   ops/s of row over ops/s of twin, both
                                  measured in the same run; fails below
                                  0.7 x
    abs    <row> <ops/s>          ops/s floor
    alloc  <row> <words>          minor-heap words per op, an exact budget
    regret <row> <misses>         tournament regret ceiling, exact; the
                                  row is tournament/<family>/<policy>
    v}

    Rows named [tournament/...] belong to the [tournament] family, every
    other row to [perf]. Only the gates of families that ran are
    evaluated, and each of those must find its measured rows. *)

type measure =
  | Rate of { ops_per_sec : float; words_per_op : float }  (** a perf row *)
  | Regret of int  (** a tournament row: misses above OPT's *)

type row = { name : string; measure : measure }

type kind =
  | Ratio of { twin : string; x : float }
  | Abs of float
  | Alloc of float
  | Ceiling of int

type gate = { row : string; kind : kind }

val parse : string -> (gate list, string) result
(** A gate file's contents; an unparsable line fails with its number. *)

val read : string -> (gate list, string) result
(** {!parse} a file. *)

(** {2 Verdicts} *)

type status = Pass | Fail | Skip

type check = { subject : string; detail : string; status : status }

type verdict = { checks : check list; ungated : string list }

val scaling_rows : string list
(** Ratio rows that compare worker counts, not implementations
    ([fleet-events/jobs4] over [jobs1]): their value depends on the core
    count, so they are skipped on machines with fewer than 4 cores. *)

val evaluate : cores:int -> families:string list -> gate list -> row list -> verdict
(** Every gate of the given families against the measured rows. A gate
    whose row (or ratio twin) was not measured fails. [ungated] lists
    the measured rows no gate names, ratio twins counting as named. *)

val conclude : ?annotate:bool -> Format.formatter -> verdict -> bool
(** Print one line per check, the ungated rows (also as a GitHub
    Actions warning when [annotate]) and a summary; [true] iff no check
    failed. *)

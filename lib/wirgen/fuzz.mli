(** Property-based fuzzing of the wir toolchain.

    Drives {!Wirgen} and {!Mutate} against the four ROADMAP invariants:

    + {b valid-exec}: a generated program passes
      {!Acfc_wir.Wir.validate}, and executing it on a real machine
      (engine, cache, disks) cannot fail;
    + {b references}: {!Acfc_wir.Wir.references}, fast-forwarded with
      the scenario's own workload RNG, equals the demand reference
      stream a {!Acfc_replacement.Recorder} observes during that
      execution — block for block;
    + {b roundtrip}: the [acfc-wir/1] codec is the identity
      ([of_string (to_string p) = Ok p]) and {!Acfc_wir.Wir.hash} is
      stable, and a {!Mutate.preserve} mutant stays valid;
    + {b reject}: every {!Mutate.corrupt} mutant is refused by
      [validate], and every {!Mutate.corrupt_json} document by
      [of_json], each with an error naming a [$.path]. The same holds
      for the other strict formats: the scenario {!Wirgen.scenario}
      makes of each program, the spec itself, a store manifest indexing
      both, a trace record, the three records of a monitor feed, an
      [acfc-bench/1] report, and any given scenario files each decode
      as they stand and reject every {!Mutate.corrupt_tree} mutant with
      a [$.path].

    The same harness runs at two budgets: quick (in [dune runtest],
    seconds) and long (the scheduled CI fuzz job, minutes) — only
    [programs]/[mutants] differ. *)

type failure = {
  spec_name : string;
  seed : int;  (** the exact [Wirgen.generate] seed — replays the case *)
  invariant : string;  (** ["valid-exec"], ["references"], ["roundtrip"] or ["reject"] *)
  detail : string;
  program : string option;  (** offending document, when one exists *)
}

type stats = {
  generated : int;  (** programs drawn from the spec pool *)
  mutated : int;  (** preserve, corrupt, corrupt-json and corrupt-tree mutants *)
  checks : int;  (** individual invariant checks performed *)
  by_category : (string * int) list;
      (** generated programs per access-pattern category *)
}

val default_specs : Wirgen.spec list
(** One single-pattern spec per {!Wirgen.pattern} (so every family is
    always exercised) plus the mixed {!Wirgen.default}. *)

val long_specs : Wirgen.spec list
(** {!default_specs} at the nightly budgets: more and larger files,
    more passes — programs an order of magnitude heavier, for the
    scheduled CI job. *)

val run :
  ?progress:(string -> unit) ->
  ?scenarios:(string * Acfc_obs.Json.t) list ->
  specs:Wirgen.spec list ->
  seed:int ->
  programs:int ->
  mutants:int ->
  unit ->
  stats * failure list
(** Fuzz [programs] programs per spec (program [i] uses seed
    [seed + i], the {!Wirgen.corpus} convention) and [mutants]
    corrupting mutants per program (half semantic, half JSON-level),
    plus one preserving mutant each, and [mutants] {!Mutate.corrupt_tree}
    mutants of each of the program's documents. [scenarios] are named
    scenario documents (e.g. the example files); program [i] also
    corrupts the [i mod n]-th of them. Returns the tally and every
    failure found; an empty failure list is a pass. Never raises —
    unexpected exceptions become failures. *)

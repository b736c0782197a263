(** Program mutators for the fuzz harness.

    Two deliberate kinds of edit, mirroring the two rejection layers of
    the wir toolchain:

    - {!preserve} makes a semantics-adjacent edit that must keep the
      program valid — the harness checks {!Acfc_wir.Wir.validate} still
      accepts it.
    - {!corrupt} and {!corrupt_json} make edits that must be rejected
      (by [validate] and [of_json] respectively) with a [$.path] error —
      the harness checks the strict toolchain never lets a broken
      program through silently. {!corrupt_tree} does the same for any
      strict document: scenarios, wirgen specs, store manifests, trace
      records, monitor feed records and bench reports.

    All mutators draw from the given RNG in a fixed order, so a mutant
    is a pure function of (program, RNG state). *)

val preserve : rng:Acfc_sim.Rng.t -> Acfc_wir.Wir.t -> Acfc_wir.Wir.t
(** A validity-preserving edit: rename, wrap the body in a [Seq],
    or add an inert [Compute] at either end. The result must satisfy
    [validate]. *)

val corrupt : rng:Acfc_sim.Rng.t -> Acfc_wir.Wir.t -> Acfc_wir.Wir.t
(** A semantic corruption: reference an unopened slot, read past a
    file's reserved extent, use an out-of-range [Choice] probability,
    or place an [Open] inside a [Loop]. The result still parses but
    must be rejected by [validate] with a [$.path] error. *)

val corrupt_tree : rng:Acfc_sim.Rng.t -> Acfc_obs.Json.t -> Acfc_obs.Json.t
(** A format-agnostic corruption of a document's object tree, at a
    random object: an unknown field (never in a metrics snapshot's
    name -> value maps, where any key is valid), a member of the wrong
    type, a repeated member, or a member the formats type as an integer
    set to [1e19], [-1e19] or [1e300]. Every strict codec must reject
    the result with a [$.path] error. *)

val corrupt_json : rng:Acfc_sim.Rng.t -> Acfc_obs.Json.t -> Acfc_obs.Json.t
(** A syntactic corruption of a program's [acfc-wir/1] JSON document:
    a {!corrupt_tree} edit, a misspelled or missing op tag, or an
    unsupported schema string. The result must be rejected by [of_json]
    with a [$.path] error. *)

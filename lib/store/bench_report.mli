(** The [acfc-bench/1] report: the machine-readable output of
    [bench --json], the bench-report entries of the store, and what
    {!Timeline} scans.

    Numbers the bench could not measure (a NaN estimate, an infinite
    rate) are written as [null] and read back as [nan]; hashes and
    seeds that do not apply to a row are [None]. *)

type artifact = {
  name : string;
  wall_s : float;
  scenario_hash : string option;  (** fingerprint of the scenario grid *)
  spec_hash : string option;  (** wirgen rows: the spec ... *)
  corpus_seed : int option;  (** ... and seed the corpus is drawn from *)
}

type micro = { name : string; ns_per_run : float; r2 : float }

type perf = {
  name : string;
  ops_per_sec : float;
  alloc_words_per_op : float;
  ops : int;  (** total ops measured *)
}

type tournament = {
  family : string;
  policy : string;
  corpus_seed : int;
  spec_hash : string;
  refs : int;
  misses : int;
  opt_misses : int;
  regret : int;  (** [misses - opt_misses] *)
  hit_rate : float;
}

type t = {
  quick : bool;
  runs : int;
  jobs : int;
  artifacts : artifact list;
  micro : micro list;
  perf : perf list;
  tournament : tournament list;
  total_wall_s : float;
}

val schema : string
(** ["acfc-bench/1"]. *)

val to_json : t -> Acfc_obs.Json.t

val of_json : Acfc_obs.Json.t -> (t, string) result
(** Strict, on {!Acfc_obs.Json.Decode}: unknown, repeated or mistyped
    members fail with their [$.path] (["bench report: unsupported
    schema ... at $.schema"]). Every member but [schema] may be absent
    (an empty list, [false], [0] or [nan]), as in a hand-written
    report. *)

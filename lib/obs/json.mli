(** Minimal JSON values: just enough for the observability layer.

    The repository deliberately carries no third-party JSON dependency;
    traces, metric snapshots and bench results only need objects of
    numbers, strings and booleans. The printer and parser round-trip
    every value this library emits ([of_string (to_string v) = Ok v]). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** members, in emission order *)

val to_string : t -> string
(** Compact (single-line) rendering. Numbers that are exact integers
    print without a decimal point, so counters stay readable. *)

val pp : Format.formatter -> t -> unit
(** Same rendering as {!to_string}. *)

val of_string : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed). The error
    string names the offending byte offset. *)

val equal : t -> t -> bool
(** Structural equality; object member {e order} is significant (this
    library always emits in a fixed order). *)

(** {2 Files} *)

val read_file : string -> (string, string) result
(** The whole file's bytes; an I/O failure is [Error] with the system
    message (which names the path). *)

val write_file : string -> string -> unit
(** [write_file path contents] writes to a temporary file in [path]'s
    directory, then renames it over [path], so a reader (or a crash)
    never observes a torn file. The result is mode [0o644]. Raises
    [Sys_error] on failure, after removing the temporary file. *)

(** {2 Strict decoding}

    The one decoder behind every versioned input format (scenario,
    workload IR, wirgen spec, store manifest, trace record, monitor feed,
    bench report). A decoder reads the value
    found at a [$.path] and fails with a [(path, message)] pair; the
    codec stamps its label on once, at its boundary
    ({!Decode.label}), giving ["wir: unknown field \"cnt\" at $.ops[1]"].

    Strictness is uniform: record objects reject unknown and repeated
    fields, and integers must be exact OCaml [int]s ({!int}). *)
module Decode : sig
  type json := t

  type error = string * string
  (** [(path, message)], e.g. [("$.ops[1].first", "expected an integer")]. *)

  type 'a t = path:string -> json -> ('a, error) result
  (** A decoder for a value found at [path]. *)

  val fail : string -> string -> ('a, error) result
  (** [fail path msg]. *)

  (** {3 Scalars and lists} *)

  val int : int t
  (** An exact OCaml [int]: integral and inside [[min_int, max_int]]
      ([1e19] and [1e300] fail rather than wrap); otherwise
      ["expected an integer"]. *)

  val num : float t

  val str : string t

  val bool : bool t

  val list : ?what:string -> 'a t -> 'a list t
  (** Decode every element at [path[i]]. A non-list fails with
      ["expected " ^ what] ([what] defaults to ["a list"]). *)

  val nullable : 'a t -> 'a option t
  (** [null] is [None]; any other value is decoded. *)

  val conv : ('a -> ('b, string) result) -> 'a t -> 'b t
  (** Decode, then check or convert the value; an [Error msg] is
      reported at the value's path. *)

  (** {3 Objects} *)

  type obj
  (** An object's members together with its path. *)

  val obj : ?what:string -> (obj -> ('a, error) result) -> 'a t
  (** Open an object that has no repeated key (["duplicate field \"k\""])
      and pass it on. A non-object fails with ["expected " ^ what]
      ([what] defaults to ["an object"]). Unknown fields are not checked
      yet: use {!known} once the object's shape is known (e.g. after
      reading a tag field), or {!record}. *)

  val assoc : ?what:string -> 'a t -> (string * 'a) list t
  (** An object read as a map (metric name to value, say): any keys, none
      repeated, each value decoded at [path.key], in document order. *)

  val known : obj -> string list -> (unit, error) result
  (** Fail with ["unknown field \"k\""] on the first member not named. *)

  val record : ?what:string -> string list -> (obj -> ('a, error) result) -> 'a t
  (** {!obj} followed by {!known}. *)

  val path : obj -> string

  val at : obj -> string -> string
  (** The path of a member: [at o "seed"] is ["$.seed"] at the root. *)

  val mem : obj -> string -> bool

  val req : obj -> string -> 'a t -> ('a, error) result
  (** A required member (["missing required field \"k\""] at the
      object's path), decoded at its own path. *)

  val opt : obj -> string -> 'a t -> ('a option, error) result

  val default : obj -> string -> 'a t -> 'a -> ('a, error) result
  (** {!opt} with a fallback for an absent member. *)

  val schema : obj -> string -> (unit, error) result
  (** The required ["schema"] member must equal the given version string
      (["unsupported schema \"s\" (expected v)"] at [$.schema]). *)

  (** {3 Boundaries} *)

  val label : string -> ('a, error) result -> ('a, string) result
  (** Render an error as ["<label>: <message> at <path>"]. *)

  val run : label:string -> 'a t -> json -> ('a, string) result
  (** Decode a document rooted at ["$"]. *)

  val of_string : label:string -> 'a t -> string -> ('a, string) result
  (** Parse then {!run}; a syntax error reads
      ["<label>: invalid JSON: ..."]. *)

  val load : label:string -> 'a t -> string -> ('a, string) result
  (** {!read_file} then {!of_string}; an I/O error reads
      ["<label>: <system message>"]. *)
end

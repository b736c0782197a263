(** An application model.

    The eight paper applications are {!Acfc_wir.Wir.t} programs — data
    that one interpreter executes, serialises and replays — wrapped by
    {!of_program}. {!make} remains as the escape hatch for behaviour
    the IR cannot express (tests and examples with custom closures).

    {!run} executes either kind inside a simulation fiber: it creates
    the application's files on [disk], applies its caching strategy
    when [env] is smart, and performs its block accesses and
    computation, returning when the application finishes. *)

type body =
  | Program of Acfc_wir.Wir.t  (** a workload IR program, run by {!Acfc_wir.Wir.exec} *)
  | Closure of (Acfc_wir.Env.t -> disk:Acfc_disk.Disk.t -> unit)
      (** arbitrary OCaml, for what the IR cannot express *)

type t = {
  name : string;
  category : string;
      (** access-pattern category from the paper's Sec. 5.3 grouping:
          "cyclic", "hot/cold", "access-once", "write-then-read" … *)
  body : body;
}

val make :
  name:string -> category:string -> (Acfc_wir.Env.t -> disk:Acfc_disk.Disk.t -> unit) -> t
(** A closure application. *)

val of_program : Acfc_wir.Wir.t -> t
(** Wrap an IR program; [name] and [category] come from the program. *)

val program : t -> Acfc_wir.Wir.t option
(** The program, for applications that are data ([None] for closures). *)

val run : t -> Acfc_wir.Env.t -> disk:Acfc_disk.Disk.t -> unit

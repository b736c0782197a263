module Wir = Acfc_wir.Wir
module Env = Acfc_wir.Env

type body =
  | Program of Wir.t
  | Closure of (Env.t -> disk:Acfc_disk.Disk.t -> unit)

type t = { name : string; category : string; body : body }

let make ~name ~category run = { name; category; body = Closure run }

let of_program p = { name = p.Wir.name; category = p.Wir.category; body = Program p }

let program t = match t.body with Program p -> Some p | Closure _ -> None

let run t env ~disk =
  match t.body with
  | Program p -> Wir.exec p env ~disk
  | Closure f -> f env ~disk

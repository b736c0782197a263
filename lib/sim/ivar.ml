(* Waiters are resume thunks, newest first. [Empty []] is a static
   constant, so an ivar nobody waits on costs one record to create. *)
type 'a state = Empty of (unit -> unit) list | Filled of 'a

type 'a t = { engine : Engine.t; mutable state : 'a state }

let create engine = { engine; state = Empty [] }

(* Oldest waiter first, so readers wake in arrival order. *)
let rec wake engine = function
  | [] -> ()
  | resume :: older ->
    wake engine older;
    Engine.schedule engine ~at:(Engine.now engine) resume

let fill t v =
  match t.state with
  | Filled _ -> invalid_arg "Ivar.fill: already filled"
  | Empty waiters ->
    t.state <- Filled v;
    wake t.engine waiters

let read t =
  match t.state with
  | Filled v -> v
  | Empty _ ->
    Engine.suspend t.engine (fun resume ->
        match t.state with
        | Empty waiters -> t.state <- Empty (resume :: waiters)
        | Filled _ -> assert false);
    (match t.state with
    | Filled v -> v
    | Empty _ -> assert false)

let peek t = match t.state with Filled v -> Some v | Empty _ -> None

let is_filled t = match t.state with Filled _ -> true | Empty _ -> false

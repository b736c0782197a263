type span = { id : int; name : string; parent : int option; start : float; stop : float }

type t = {
  clock : unit -> float;
  mutable next : int;
  mutable open_ : int list;  (** innermost first *)
  mutable closed : span list;  (** newest first *)
}

let create ?(clock = Unix.gettimeofday) () = { clock; next = 0; open_ = []; closed = [] }

let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with p :: _ -> Some p | [] -> None in
  t.open_ <- id :: t.open_;
  let start = t.clock () in
  Fun.protect f ~finally:(fun () ->
      let stop = t.clock () in
      t.open_ <- List.tl t.open_;
      t.closed <- { id; name; parent; start; stop } :: t.closed)

let spans t = List.sort (fun a b -> compare a.id b.id) t.closed

let duration s = s.stop -. s.start

let self_time all s =
  let clip c = (Float.max c.start s.start, Float.min c.stop s.stop) in
  let children =
    List.filter_map (fun c -> if c.parent = Some s.id then Some (clip c) else None) all
    |> List.sort compare
  in
  (* Length of the union of the clipped child intervals. *)
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0.0, Float.neg_infinity) children
  in
  duration s -. covered

let self_by_name all =
  List.fold_left
    (fun acc s ->
      let self = self_time all s in
      match List.assoc_opt s.name acc with
      | Some total ->
        total := !total +. self;
        acc
      | None -> acc @ [ (s.name, ref self) ])
    [] all
  |> List.map (fun (name, total) -> (name, !total))

let to_json s =
  Printf.sprintf "{\"id\":%d,\"name\":%S,\"parent\":%s,\"start\":%.6f,\"end\":%.6f}" s.id
    s.name
    (match s.parent with Some p -> string_of_int p | None -> "null")
    s.start s.stop

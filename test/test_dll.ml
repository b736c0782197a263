open Acfc_oracle
open Tutil

let basic_order () =
  let l = Dll.create () in
  let _a = Dll.push_back l "a" in
  let _b = Dll.push_back l "b" in
  let _c = Dll.push_front l "c" in
  chk_int "length" 3 (Dll.length l);
  chk_bool "front to back" true (Dll.to_list l = [ "c"; "a"; "b" ])

let remove_middle () =
  let l = Dll.create () in
  let _a = Dll.push_back l 1 in
  let b = Dll.push_back l 2 in
  let _c = Dll.push_back l 3 in
  Dll.remove l b;
  chk_bool "removed" true (Dll.to_list l = [ 1; 3 ]);
  chk_bool "node detached" false (Dll.contains l b);
  Alcotest.check_raises "detached reuse" (Invalid_argument "Dll: node is detached")
    (fun () -> Dll.remove l b)

let remove_ends () =
  let l = Dll.create () in
  let a = Dll.push_back l 1 in
  let b = Dll.push_back l 2 in
  Dll.remove l a;
  chk_bool "front gone" true (Dll.to_list l = [ 2 ]);
  Dll.remove l b;
  chk_bool "empty" true (Dll.is_empty l);
  chk_bool "front none" true (Dll.front l = None);
  chk_bool "back none" true (Dll.back l = None)

let wrong_list () =
  let l1 = Dll.create () and l2 = Dll.create () in
  let a = Dll.push_back l1 1 in
  ignore (Dll.push_back l2 2);
  Alcotest.check_raises "foreign node"
    (Invalid_argument "Dll: node belongs to another list") (fun () -> Dll.remove l2 a)

let move_front_back () =
  let l = Dll.create () in
  let a = Dll.push_back l 1 in
  let _b = Dll.push_back l 2 in
  let c = Dll.push_back l 3 in
  Dll.move_front l c;
  chk_bool "moved front" true (Dll.to_list l = [ 3; 1; 2 ]);
  Dll.move_front l c;
  chk_bool "idempotent at front" true (Dll.to_list l = [ 3; 1; 2 ]);
  Dll.move_back l a;
  chk_bool "moved back" true (Dll.to_list l = [ 3; 2; 1 ]);
  Dll.move_back l a;
  chk_bool "idempotent at back" true (Dll.to_list l = [ 3; 2; 1 ]);
  chk_int "length stable" 3 (Dll.length l)

let move_singleton () =
  let l = Dll.create () in
  let a = Dll.push_back l 1 in
  Dll.move_front l a;
  Dll.move_back l a;
  chk_bool "singleton intact" true (Dll.to_list l = [ 1 ])

let walk () =
  let l = Dll.create () in
  let _ = Dll.push_back l 1 in
  let _ = Dll.push_back l 2 in
  let _ = Dll.push_back l 3 in
  let from_back =
    let rec go acc = function
      | None -> acc
      | Some n -> go (Dll.value n :: acc) (Dll.next_toward_front n)
    in
    go [] (Dll.back l)
  in
  chk_bool "walk from back" true (from_back = [ 1; 2; 3 ]);
  let from_front =
    let rec go acc = function
      | None -> List.rev acc
      | Some n -> go (Dll.value n :: acc) (Dll.next_toward_back n)
    in
    go [] (Dll.front l)
  in
  chk_bool "walk from front" true (from_front = [ 1; 2; 3 ])

let swap_values_fixes_backrefs () =
  let l = Dll.create () in
  let nodes = Hashtbl.create 8 in
  let a = Dll.push_back l "a" in
  let b = Dll.push_back l "b" in
  let c = Dll.push_back l "c" in
  Hashtbl.replace nodes "a" a;
  Hashtbl.replace nodes "b" b;
  Hashtbl.replace nodes "c" c;
  Dll.swap_values l a c ~on_move:(fun v n -> Hashtbl.replace nodes v n);
  chk_bool "order swapped" true (Dll.to_list l = [ "c"; "b"; "a" ]);
  chk_bool "backref a" true (Dll.value (Hashtbl.find nodes "a") = "a");
  chk_bool "backref c" true (Dll.value (Hashtbl.find nodes "c") = "c");
  (* Swap with itself is a no-op. *)
  Dll.swap_values l b b ~on_move:(fun _ _ -> Alcotest.fail "no move expected");
  chk_bool "self swap no-op" true (Dll.to_list l = [ "c"; "b"; "a" ])

let swap_adjacent () =
  let l = Dll.create () in
  let a = Dll.push_back l 1 in
  let b = Dll.push_back l 2 in
  Dll.swap_values l a b ~on_move:(fun _ _ -> ());
  chk_bool "adjacent swap" true (Dll.to_list l = [ 2; 1 ])

(* Model-based property: a random op sequence applied to both the Dll
   and a reference list model must agree. Ops reference nodes by the
   index of their insertion. *)
type op = Push_front of int | Push_back of int | Remove of int | Move_front of int | Move_back of int

let op_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun v -> Push_front v) int;
        map (fun v -> Push_back v) int;
        map (fun i -> Remove i) (int_range 0 1000);
        map (fun i -> Move_front i) (int_range 0 1000);
        map (fun i -> Move_back i) (int_range 0 1000);
      ])

let model_prop =
  qcheck "model-based ops agree with list model" ~count:300
    QCheck2.Gen.(list_size (int_range 0 120) op_gen)
    (fun ops ->
      let l = Dll.create () in
      let nodes = ref [||] in
      (* model: values front-to-back; nodes.(i) = Some node while live *)
      let model = ref [] in
      let live = Hashtbl.create 16 in
      let next = ref 0 in
      let add_node node v ~front =
        let id = !next in
        incr next;
        nodes := Array.append !nodes [| node |];
        Hashtbl.replace live id ();
        if front then model := (id, v) :: !model else model := !model @ [ (id, v) ]
      in
      let pick i =
        let ids = Hashtbl.fold (fun id () acc -> id :: acc) live [] in
        match List.sort compare ids with
        | [] -> None
        | ids -> Some (List.nth ids (i mod List.length ids))
      in
      List.iter
        (fun op ->
          match op with
          | Push_front v -> add_node (Dll.push_front l v) v ~front:true
          | Push_back v -> add_node (Dll.push_back l v) v ~front:false
          | Remove i ->
            (match pick i with
            | None -> ()
            | Some id ->
              Dll.remove l !nodes.(id);
              Hashtbl.remove live id;
              model := List.filter (fun (j, _) -> j <> id) !model)
          | Move_front i ->
            (match pick i with
            | None -> ()
            | Some id ->
              Dll.move_front l !nodes.(id);
              let entry = List.find (fun (j, _) -> j = id) !model in
              model := entry :: List.filter (fun (j, _) -> j <> id) !model)
          | Move_back i ->
            (match pick i with
            | None -> ()
            | Some id ->
              Dll.move_back l !nodes.(id);
              let entry = List.find (fun (j, _) -> j = id) !model in
              model := List.filter (fun (j, _) -> j <> id) !model @ [ entry ]))
        ops;
      Dll.to_list l = List.map snd !model && Dll.length l = List.length !model)

let suites =
  [
    ( "dll",
      [
        case "basic order" basic_order;
        case "remove middle" remove_middle;
        case "remove ends" remove_ends;
        case "wrong list" wrong_list;
        case "move front/back" move_front_back;
        case "move singleton" move_singleton;
        case "walking" walk;
        case "swap_values backrefs" swap_values_fixes_backrefs;
        case "swap adjacent" swap_adjacent;
        model_prop;
      ] );
  ]

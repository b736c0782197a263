open Acfc_oracle
open Tutil

let int_heap () = Heap.create ~leq:(fun (a : int) b -> a <= b) ()

let empty_heap () =
  let h = int_heap () in
  chk_int "length" 0 (Heap.length h);
  chk_bool "is_empty" true (Heap.is_empty h);
  chk_bool "peek none" true (Heap.peek h = None);
  chk_bool "pop none" true (Heap.pop h = None);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Heap.pop_exn h))

let push_pop_order () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3 ];
  chk_int "length" 5 (Heap.length h);
  chk_bool "peek min" true (Heap.peek h = Some 1);
  let drained = List.init 5 (fun _ -> Heap.pop_exn h) in
  chk_bool "sorted drain" true (drained = [ 1; 1; 3; 4; 5 ]);
  chk_bool "empty after" true (Heap.is_empty h)

let clear () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 3; 2; 1 ];
  Heap.clear h;
  chk_int "cleared" 0 (Heap.length h);
  Heap.push h 9;
  chk_bool "usable after clear" true (Heap.pop h = Some 9)

let to_list_contents () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 4; 2; 7 ];
  chk_bool "same multiset" true (List.sort compare (Heap.to_list h) = [ 2; 4; 7 ])

let drain h =
  let rec go acc = match Heap.pop h with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

let sorted_drain_prop =
  qcheck "pop drains in sorted order" ~count:500
    QCheck2.Gen.(list_size (int_range 0 200) int)
    (fun l ->
      let h = int_heap () in
      List.iter (Heap.push h) l;
      drain h = List.sort compare l)

let interleaved_prop =
  (* Interleave pushes and pops; the result must match a reference
     sorted-multiset model. *)
  qcheck "interleaved push/pop matches model" ~count:300
    QCheck2.Gen.(list_size (int_range 0 200) (pair bool int))
    (fun ops ->
      let h = int_heap () in
      let model = ref [] in
      List.for_all
        (fun (is_pop, v) ->
          if is_pop then begin
            let expected = match !model with [] -> None | x :: rest -> model := rest; Some x in
            Heap.pop h = expected
          end
          else begin
            Heap.push h v;
            model := List.sort compare (v :: !model);
            true
          end)
        ops)

let stability_of_ties () =
  (* The engine relies on (time, seq) ordering for determinism; check
     that a heap over pairs drains ties in seq order. *)
  let h =
    Heap.create
      ~leq:(fun (t1, s1) (t2, s2) -> t1 < t2 || (t1 = t2 && s1 <= s2))
      ()
  in
  List.iter (Heap.push h) [ (1.0, 3); (1.0, 1); (0.5, 2); (1.0, 2) ];
  chk_bool "tie order" true
    (drain h = [ (0.5, 2); (1.0, 1); (1.0, 2); (1.0, 3) ])

let suites =
  [
    ( "heap",
      [
        case "empty" empty_heap;
        case "push/pop order" push_pop_order;
        case "clear" clear;
        case "to_list" to_list_contents;
        case "tie ordering" stability_of_ties;
        sorted_drain_prop;
        interleaved_prop;
      ] );
  ]

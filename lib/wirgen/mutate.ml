module Wir = Acfc_wir.Wir
module Rng = Acfc_sim.Rng
module Json = Acfc_obs.Json

let preserve ~rng (p : Wir.t) =
  match Rng.int rng 4 with
  | 0 -> { p with Wir.name = p.Wir.name ^ "+" }
  | 1 -> { p with Wir.ops = [ Wir.seq p.Wir.ops ] }
  | 2 -> { p with Wir.ops = p.Wir.ops @ [ Wir.compute 0.001 ] }
  | _ -> { p with Wir.ops = Wir.compute 0.001 :: p.Wir.ops }

(* Insert [op] right after the first top-level [Open], so the file it
   references is live when validation reaches it. *)
let after_first_open ops op =
  let rec go = function
    | [] -> None
    | (Wir.Open _ as o) :: rest -> Some (o :: op :: rest)
    | o :: rest -> Option.map (fun tail -> o :: tail) (go rest)
  in
  go ops

let corrupt ~rng (p : Wir.t) =
  let append op = { p with Wir.ops = p.Wir.ops @ [ op ] } in
  let bad_slot () =
    (* One past the last slot the program ever opens. *)
    append (Wir.read ~file:(Wir.file_count p) ~first:0 ~count:1 ())
  in
  match Rng.int rng 4 with
  | 0 -> bad_slot ()
  | 1 -> (
    (* Read far past the just-opened file's reserved extent. *)
    let overrun = Wir.read ~file:0 ~first:1_000_000_000 ~count:1 () in
    match after_first_open p.Wir.ops overrun with
    | Some ops -> { p with Wir.ops }
    | None -> bad_slot ())
  | 2 -> append (Wir.choice ~prob:1.5 [ Wir.compute 0.0 ] [])
  | _ ->
    append (Wir.loop 2 [ Wir.open_file ~name:"corrupt.dat" ~size_blocks:1 () ])

(* {2 JSON-level corruption} *)

(* Member names that the scenario, wir, wirgen, store, trace, monitor
   and bench formats type as integers (no format uses one of these names
   for a float). *)
let int_fields =
  [
    (* acfc-wir/1 *)
    "file"; "first"; "count"; "size_blocks"; "reserve_blocks"; "base"; "range";
    "prio"; "last"; "index"; "times";
    (* acfc-scenario/1 *)
    "seed"; "capacity_blocks"; "max_managers"; "max_levels"; "max_file_records";
    "max_placeholders"; "min_decisions"; "write_cluster"; "disk"; "file_blocks";
    "clients"; "shared_files"; "cache_blocks"; "client";
    (* acfc-wirgen/1 ([min, max] pairs) and acfc-store/1 *)
    "files"; "passes"; "seq"; "bytes"; "next_seq";
    (* trace records, monitor snapshots and acfc-bench/1 reports *)
    "pid"; "owner"; "chooser"; "addr"; "blocks"; "n"; "runs"; "jobs"; "ops"; "refs";
    "misses"; "opt_misses"; "regret"; "corpus_seed";
  ]

(* Members holding a map with free keys (a metrics snapshot's name ->
   value tables): an extra key there is one more metric, not an unknown
   field. *)
let map_fields = [ "counters"; "gauges"; "histograms" ]

let set_field k v members =
  List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) members

(* Rebuild [j] with [f] applied to the [k]-th value (pre-order) that
   [is_site] accepts, given the name of the member holding it (list
   elements inherit their list's name); also return how many such
   values there are, so [k = -1] only counts. *)
let rewrite ~is_site k f j =
  let n = ref 0 in
  let rec go name v =
    let v =
      if is_site name v then (
        incr n;
        if !n - 1 = k then f v else v)
      else v
    in
    match v with
    | Json.Obj members -> Json.Obj (List.map (fun (name, x) -> (name, go name x)) members)
    | Json.List items -> Json.List (List.map (go name) items)
    | v -> v
  in
  let j = go "" j in
  (j, !n)

(* Edit one site drawn uniformly; [None] when there is none. *)
let edit_site ~rng ~is_site f j =
  match rewrite ~is_site (-1) f j with
  | _, 0 -> None
  | _, n -> Some (fst (rewrite ~is_site (Rng.int rng n) f j))

let corrupt_tree ~rng j =
  let kind = Rng.int rng 4 in
  (* Which member of the chosen object an edit targets. *)
  let member = Rng.int rng 1_000_000 in
  let nth m = List.nth m (member mod List.length m) in
  let on_members f = function Json.Obj m -> Json.Obj (f m) | v -> v in
  let any_object name = function
    | Json.Obj _ -> not (List.mem name map_fields)
    | _ -> false
  in
  let non_empty _ = function Json.Obj (_ :: _) -> true | _ -> false in
  let integer name = function
    | Json.Num x -> Float.is_integer x && List.mem name int_fields
    | _ -> false
  in
  let unknown = ("zzz", Json.Num 1.0) in
  let edited =
    match kind with
    | 0 -> None
    | 1 ->
      (* A value of the wrong type: no field of any format takes both a
         string and a number, and only bench reports take null, in place
         of a number or a string. *)
      edit_site ~rng ~is_site:non_empty
        (on_members (fun m ->
             let k, v = nth m in
             set_field k
               (match v with
               | Json.Str _ -> Json.Num 5.0
               | Json.Num _ -> Json.Str "5"
               | Json.Null -> Json.Bool true
               | Json.Bool _ | Json.List _ | Json.Obj _ -> Json.Null)
               m))
        j
    | 2 -> edit_site ~rng ~is_site:non_empty (on_members (fun m -> m @ [ nth m ])) j
    | _ ->
      let v = List.nth [ 1e19; -1e19; 1e300 ] (member mod 3) in
      edit_site ~rng ~is_site:integer (fun _ -> Json.Num v) j
  in
  match edited with
  | Some j -> j
  | None -> (
    match edit_site ~rng ~is_site:any_object (on_members (fun m -> m @ [ unknown ])) j with
    | Some j -> j
    | None -> Json.Obj [ unknown ])

(* Rewrite the first op of the program's ops list with [f]; [None] when
   the document doesn't have the expected {ops: [Obj ...]} shape. *)
let with_first_op j f =
  match j with
  | Json.Obj members -> (
    match List.assoc_opt "ops" members with
    | Some (Json.List (Json.Obj op0 :: rest)) ->
      Some (Json.Obj (set_field "ops" (Json.List (f op0 :: rest)) members))
    | _ -> None)
  | _ -> None

let corrupt_json ~rng j =
  let or_tree = function Some j' -> j' | None -> corrupt_tree ~rng j in
  match Rng.int rng 5 with
  | 0 | 1 -> corrupt_tree ~rng j
  | 2 ->
    (* Misspell the op tag: "read" -> "readx" etc. *)
    or_tree
      (with_first_op j (fun op0 ->
           match List.assoc_opt "op" op0 with
           | Some (Json.Str tag) -> Json.Obj (set_field "op" (Json.Str (tag ^ "x")) op0)
           | _ -> Json.Obj (("op", Json.Str "zzz") :: op0)))
  | 3 ->
    (* Drop the required op tag entirely. *)
    or_tree
      (with_first_op j (fun op0 ->
           Json.Obj (List.filter (fun (k, _) -> k <> "op") op0)))
  | _ -> (
    match j with
    | Json.Obj members ->
      Json.Obj (set_field "schema" (Json.Str "acfc-wir/999") members)
    | _ -> corrupt_tree ~rng j)

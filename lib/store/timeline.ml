module Json = Acfc_obs.Json

type point = {
  seq : int;
  digest : string;
  ops_per_sec : float;
  words_per_op : float;
}

type row = { name : string; points : point list }

let default_threshold = 0.30

(* A row whose ops/sec is null (the bench could not measure a finite
   rate) has no point to plot. *)
let of_report j =
  Result.map
    (fun (r : Bench_report.t) ->
      List.filter_map
        (fun (p : Bench_report.perf) ->
          if Float.is_nan p.ops_per_sec then None
          else Some (p.name, p.ops_per_sec, p.alloc_words_per_op))
        r.perf)
    (Bench_report.of_json j)

let scan store =
  let reports = Store.entries store in
  let reports =
    List.filter (fun (e : Manifest.entry) -> e.kind = Kind.Bench_report) reports
  in
  let tbl : (string, point list) Hashtbl.t = Hashtbl.create 16 in
  let rec ingest = function
    | [] -> Ok ()
    | (e : Manifest.entry) :: rest ->
      (match Store.read store ~kind:Kind.Bench_report ~digest:e.digest with
      | Error msg -> Error msg
      | Ok content ->
        (match Json.of_string content with
        | Error msg ->
          Error (Printf.sprintf "timeline: %s: invalid JSON: %s" e.digest msg)
        | Ok j ->
          (match of_report j with
          | Error msg -> Error (Printf.sprintf "timeline: %s: %s" e.digest msg)
          | Ok rows ->
            List.iter
              (fun (name, ops_per_sec, words_per_op) ->
                let p = { seq = e.seq; digest = e.digest; ops_per_sec; words_per_op } in
                let prev = Option.value ~default:[] (Hashtbl.find_opt tbl name) in
                Hashtbl.replace tbl name (p :: prev))
              rows;
            ingest rest)))
  in
  match ingest reports with
  | Error _ as e -> e
  | Ok () ->
    let rows =
      Hashtbl.fold
        (fun name points acc -> { name; points = List.rev points } :: acc)
        tbl []
    in
    Ok (List.sort (fun a b -> String.compare a.name b.name) rows)

let worst_drop row =
  let rec go prev worst = function
    | [] -> worst
    | p :: rest ->
      let worst =
        match prev with
        | Some q when q.ops_per_sec > 0.0 && p.ops_per_sec < q.ops_per_sec ->
          let drop = (q.ops_per_sec -. p.ops_per_sec) /. q.ops_per_sec in
          (match worst with
          | Some (d, _) when d >= drop -> worst
          | _ -> Some (drop, p.seq))
        | _ -> worst
      in
      go (Some p) worst rest
  in
  go None None row.points

let regressions ?(threshold = default_threshold) rows =
  List.filter_map
    (fun row ->
      match worst_drop row with
      | Some (drop, seq) when drop > threshold -> Some (row, drop, seq)
      | _ -> None)
    rows

let render ?(threshold = default_threshold) ppf rows =
  if rows = [] then Format.fprintf ppf "timeline: no stored bench reports@."
  else
    List.iter
      (fun row ->
        Format.fprintf ppf "%s@." row.name;
        List.iter
          (fun p ->
            Format.fprintf ppf "  run %3d  %12.0f ops/s  %8.1f w/op  [%s]@." p.seq
              p.ops_per_sec p.words_per_op
              (String.sub p.digest 0 12))
          row.points;
        match worst_drop row with
        | Some (drop, seq) when drop > threshold ->
          Format.fprintf ppf "  ! regression: %.0f%% ops/s drop at run %d@."
            (drop *. 100.0) seq
        | _ -> ())
      rows

type measure =
  | Rate of { ops_per_sec : float; words_per_op : float }
  | Regret of int

type row = { name : string; measure : measure }

type kind =
  | Ratio of { twin : string; x : float }
  | Abs of float
  | Alloc of float
  | Ceiling of int

type gate = { row : string; kind : kind }

let family name =
  if String.starts_with ~prefix:"tournament/" name then "tournament" else "perf"

let parse contents =
  let line_gate n line =
    let bad () = Error (Printf.sprintf "gates: line %d: bad gate %S" n line) in
    let gate row kind = Ok (Some { row; kind }) in
    let num v k = match float_of_string_opt v with Some x -> k x | None -> bad () in
    match String.split_on_char ' ' line |> List.filter (( <> ) "") with
    | [] -> Ok None
    | [ "ratio"; row; twin; v ] when family row = "perf" ->
      num v (fun x -> gate row (Ratio { twin; x }))
    | [ "abs"; row; v ] when family row = "perf" -> num v (fun x -> gate row (Abs x))
    | [ "alloc"; row; v ] when family row = "perf" -> num v (fun x -> gate row (Alloc x))
    | [ "regret"; row; v ] when family row = "tournament" -> (
      match int_of_string_opt v with Some c -> gate row (Ceiling c) | None -> bad ())
    | _ -> bad ()
  in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      let line =
        String.trim
          (match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line)
      in
      match line_gate n line with
      | Error _ as e -> e
      | Ok None -> go (n + 1) acc rest
      | Ok (Some g) -> go (n + 1) (g :: acc) rest)
  in
  go 1 [] (String.split_on_char '\n' contents)

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> parse contents
  | exception Sys_error e -> Error ("gates: " ^ e)

type status = Pass | Fail | Skip

type check = { subject : string; detail : string; status : status }

type verdict = { checks : check list; ungated : string list }

let scaling_rows = [ "fleet-events/jobs4" ]

let evaluate ~cores ~families gates rows =
  let rate name =
    List.find_map
      (fun r ->
        match r.measure with
        | Rate { ops_per_sec; words_per_op } when r.name = name ->
          Some (ops_per_sec, words_per_op)
        | _ -> None)
      rows
  and regret name =
    List.find_map
      (fun r -> match r.measure with Regret n when r.name = name -> Some n | _ -> None)
      rows
  in
  let gates = List.filter (fun g -> List.mem (family g.row) families) gates in
  let check g =
    let verdict ok detail =
      { subject = g.row; detail; status = (if ok then Pass else Fail) }
    in
    let missing () = verdict false "no measured row" in
    match g.kind with
    | Ratio _ when List.mem g.row scaling_rows && cores < 4 ->
      {
        subject = g.row;
        detail = Printf.sprintf "scaling ratio needs >= 4 cores (have %d)" cores;
        status = Skip;
      }
    | Ratio { twin; x } -> (
      match (rate g.row, rate twin) with
      | Some (f, _), Some (s, _) when s > 0.0 ->
        let measured = f /. s and floor = 0.7 *. x in
        verdict (measured >= floor)
          (Printf.sprintf "%10.2fx      ratio floor %8.2fx vs %s" measured floor twin)
      | _ -> missing ())
    | Abs floor -> (
      match rate g.row with
      | Some (ops, _) ->
        verdict (ops >= floor) (Printf.sprintf "%10.0f op/s   abs floor %9.0f" ops floor)
      | None -> missing ())
    | Alloc budget -> (
      match rate g.row with
      | Some (_, words) ->
        verdict
          (words <= budget +. 1e-6)
          (Printf.sprintf "%10.2f w/op   alloc budget %6.2f" words budget)
      | None -> missing ())
    | Ceiling ceiling -> (
      match regret g.row with
      | Some n ->
        verdict (n <= ceiling) (Printf.sprintf "%10d regret ceiling %5d" n ceiling)
      | None -> missing ())
  in
  let named name =
    List.exists
      (fun g ->
        g.row = name || match g.kind with Ratio { twin; _ } -> twin = name | _ -> false)
      gates
  in
  {
    checks = List.map check gates;
    ungated = List.filter_map (fun r -> if named r.name then None else Some r.name) rows;
  }

let conclude ?(annotate = false) ppf v =
  List.iter
    (fun c ->
      Format.fprintf ppf "  gate %-36s %s  %s@." c.subject c.detail
        (match c.status with Pass -> "ok" | Fail -> "FAILED" | Skip -> "skipped"))
    v.checks;
  (match v.ungated with
  | [] -> ()
  | names ->
    let names = String.concat ", " names in
    Format.fprintf ppf "  ungated rows (measured, no gate): %s@." names;
    if annotate then
      Format.fprintf ppf
        "::warning title=ungated bench rows::measured but not gated: %s@." names);
  let failed = List.length (List.filter (fun c -> c.status = Fail) v.checks) in
  if failed > 0 then Format.fprintf ppf "[gates FAILED: %d violation(s)]@." failed
  else Format.fprintf ppf "[gates passed: %d check(s)]@." (List.length v.checks);
  failed = 0

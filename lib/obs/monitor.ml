let schema = "acfc-monitor/1"

(* Producing *)

type producer = { oc : out_channel; mutable closed : bool }

let write_line p j =
  output_string p.oc (Json.to_string j);
  output_char p.oc '\n';
  flush p.oc

let start_record scenario =
  Json.Obj
    ([ ("schema", Json.Str schema); ("type", Json.Str "start") ]
    @ Option.fold ~none:[] ~some:(fun s -> [ ("scenario", Json.Str s) ]) scenario)

let snapshot_record metrics ~now =
  Json.Obj [ ("type", Json.Str "snapshot"); ("metrics", Metrics.snapshot metrics ~now) ]

let end_record ~now = Json.Obj [ ("type", Json.Str "end"); ("now", Json.Num now) ]

let records ?scenario metrics ~now =
  [ start_record scenario; snapshot_record metrics ~now; end_record ~now ]

let producer ~path ?scenario () =
  let oc = open_out_bin path in
  let p = { oc; closed = false } in
  write_line p (start_record scenario);
  p

let sample p ~metrics ~now =
  if not p.closed then write_line p (snapshot_record metrics ~now)

let finish p ~now =
  if not p.closed then begin
    write_line p (end_record ~now);
    p.closed <- true;
    close_out p.oc
  end

(* Consuming *)

type snapshot = { now : float; gauges : (string * float) list }

type event =
  | Start of { scenario : string option }
  | Snapshot of snapshot
  | End of { now : float }

let version = schema

let decode_event =
  let open Json.Decode in
  let ( let* ) = Result.bind in
  let nums o names =
    List.fold_left
      (fun acc k -> Result.bind acc (fun () -> Result.map ignore (req o k num)))
      (Ok ()) names
  in
  let histogram =
    let bucket =
      record [ "le"; "n" ] (fun b ->
          let* () = nums b [ "le" ] in
          req b "n" int)
    in
    record [ "count"; "sum"; "min"; "max"; "mean"; "buckets" ] (fun o ->
        let* () = nums o [ "sum"; "min"; "max"; "mean" ] in
        let* _ = req o "buckets" (list bucket) in
        Result.map ignore (req o "count" int))
  in
  (* Counters and histograms are checked, not kept: the renderer reads
     the clock and the gauges. *)
  let snapshot =
    record [ "now"; "counters"; "gauges"; "histograms" ] (fun o ->
        let* now = req o "now" num in
        let* _ = default o "counters" (assoc int) [] in
        let* gauges = default o "gauges" (assoc num) [] in
        let* _ = default o "histograms" (assoc histogram) [] in
        Ok { now; gauges })
  in
  obj (fun o ->
      match opt o "type" str with
      | Error _ as e -> e
      | Ok None -> fail (path o) "record without a type"
      | Ok (Some "start") ->
        let* () = known o [ "schema"; "type"; "scenario" ] in
        let* () = schema o version in
        let* scenario = opt o "scenario" str in
        Ok (Start { scenario })
      | Ok (Some "snapshot") ->
        let* () = known o [ "type"; "metrics" ] in
        if not (mem o "metrics") then fail (path o) "snapshot record without metrics"
        else Result.map (fun s -> Snapshot s) (req o "metrics" snapshot)
      | Ok (Some "end") ->
        let* () = known o [ "type"; "now" ] in
        Result.map (fun now -> End { now }) (req o "now" num)
      | Ok (Some t) -> fail (at o "type") (Printf.sprintf "unknown record type %S" t))

let parse_line = Json.Decode.of_string ~label:"monitor" decode_event

let follow ~path ?(poll_s = 0.02) ?(timeout_s = 10.0) ~on_event () =
  let start = Unix.gettimeofday () in
  let rec wait_file () =
    if Sys.file_exists path then Ok ()
    else if Unix.gettimeofday () -. start > timeout_s then
      Error (Printf.sprintf "monitor: timed out waiting for %s to appear" path)
    else begin
      Unix.sleepf poll_s;
      wait_file ()
    end
  in
  match wait_file () with
  | Error _ as e -> e
  | Ok () ->
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let partial = Buffer.create 256 in
        let last_data = ref (Unix.gettimeofday ()) in
        (* Deliver every complete line currently buffered; the return
           value says whether the stream is finished. *)
        let deliver chunk =
          Buffer.add_string partial chunk;
          let s = Buffer.contents partial in
          Buffer.clear partial;
          let rec go from =
            match String.index_from_opt s from '\n' with
            | None ->
              Buffer.add_string partial (String.sub s from (String.length s - from));
              Ok `More
            | Some nl ->
              let line = String.sub s from (nl - from) in
              if String.trim line = "" then go (nl + 1)
              else
                (match parse_line line with
                | Error _ as e -> e
                | Ok ev ->
                  let stop = on_event ev = `Stop in
                  (match ev with
                  | End _ -> Ok `Finished
                  | _ -> if stop then Ok `Finished else go (nl + 1)))
          in
          go 0
        in
        let rec loop () =
          let len = in_channel_length ic in
          let pos = pos_in ic in
          if len > pos then begin
            let chunk = really_input_string ic (len - pos) in
            last_data := Unix.gettimeofday ();
            match deliver chunk with
            | Ok `Finished -> Ok ()
            | Ok `More -> loop ()
            | Error _ as e -> e
          end
          else if Unix.gettimeofday () -. !last_data > timeout_s then
            Error
              (Printf.sprintf "monitor: no new data in %s for %.1fs" path timeout_s)
          else begin
            Unix.sleepf poll_s;
            loop ()
          end
        in
        loop ())

(* Rendering *)

type renderer = {
  mutable prev_ratio : float option;
  mutable snapshots : int;
}

let renderer () = { prev_ratio = None; snapshots = 0 }

(* ["fleet.client.hits{client=3}"] -> [Some ("fleet.client.hits", "3")] *)
let client_gauge name =
  match String.index_opt name '{' with
  | Some i when String.length name > i && name.[String.length name - 1] = '}' ->
    let family = String.sub name 0 i in
    let inner = String.sub name (i + 1) (String.length name - i - 2) in
    (match String.split_on_char '=' inner with
    | [ "client"; id ] -> Some (family, id)
    | _ -> None)
  | _ -> None

let find gauges name = List.assoc_opt name gauges

let render r ppf = function
  | Start { scenario } ->
    let extra = Option.fold ~none:"" ~some:(Printf.sprintf " scenario %s") scenario in
    Format.fprintf ppf "monitor: stream started%s@." extra
  | End { now } ->
    Format.fprintf ppf "monitor: run complete at t=%.3fs (%d snapshots)@." now
      r.snapshots
  | Snapshot { now; gauges; _ } ->
    r.snapshots <- r.snapshots + 1;
    (match (find gauges "cache.hits", find gauges "cache.misses") with
    | Some hits, Some misses ->
      let total = hits +. misses in
      let ratio = if total > 0.0 then hits /. total else 0.0 in
      let delta =
        match r.prev_ratio with
        | Some p -> Printf.sprintf " (%+.1fpp)" ((ratio -. p) *. 100.0)
        | None -> ""
      in
      r.prev_ratio <- Some ratio;
      Format.fprintf ppf "t=%8.3fs  cache %.0f hits / %.0f misses  hit-rate %5.1f%%%s@."
        now hits misses (ratio *. 100.0) delta
    | _ -> Format.fprintf ppf "t=%8.3fs@." now);
    (* Per-client fleet gauges, when the stream comes from a fleet run. *)
    let clients = Hashtbl.create 8 in
    List.iter
      (fun (name, v) ->
        match client_gauge name with
        | Some (family, id) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt clients id) in
          Hashtbl.replace clients id ((family, v) :: prev)
        | None -> ())
      gauges;
    let ids =
      Hashtbl.fold (fun id _ acc -> id :: acc) clients []
      |> List.sort (fun a b ->
             match (int_of_string_opt a, int_of_string_opt b) with
             | Some x, Some y -> compare x y
             | _ -> String.compare a b)
    in
    List.iter
      (fun id ->
        let fam = Hashtbl.find clients id in
        let g name = Option.value ~default:0.0 (List.assoc_opt name fam) in
        let hits = g "fleet.client.hits" and misses = g "fleet.client.misses" in
        let total = hits +. misses in
        let ratio = if total > 0.0 then hits /. total *. 100.0 else 0.0 in
        Format.fprintf ppf
          "  client %s: %.0f events  %.0f hits / %.0f misses (%.1f%%)  remote %.0f  disk %.0f@."
          id
          (g "fleet.client.events")
          hits misses ratio
          (g "fleet.client.remote_requests")
          (g "fleet.client.disk_reads"))
      ids;
    match find gauges "fleet.server.requests" with
    | Some reqs ->
      Format.fprintf ppf "  server: %.0f requests  %.0f hits  disk busy %.3fs@." reqs
        (Option.value ~default:0.0 (find gauges "fleet.server.hits"))
        (Option.value ~default:0.0 (find gauges "fleet.server.disk_busy_s"))
    | None -> ()

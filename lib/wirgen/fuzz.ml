module Wir = Acfc_wir.Wir
module Rng = Acfc_sim.Rng
module Json = Acfc_obs.Json
module Config = Acfc_core.Config
module Block = Acfc_core.Block
module Scenario = Acfc_scenario.Scenario
module Recorder = Acfc_replacement.Recorder
module Manifest = Acfc_store.Manifest
module Kind = Acfc_store.Kind
module Bench_report = Acfc_store.Bench_report
module Metrics = Acfc_obs.Metrics
module Trace = Acfc_obs.Trace

type failure = {
  spec_name : string;
  seed : int;
  invariant : string;
  detail : string;
  program : string option;
}

type stats = {
  generated : int;
  mutated : int;
  checks : int;
  by_category : (string * int) list;
}

let default_specs =
  List.map
    (fun p ->
      {
        Wirgen.default with
        Wirgen.name = Wirgen.pattern_to_string p;
        mix = [ (p, 1.0) ];
      })
    Wirgen.patterns
  @ [ Wirgen.default ]

let long_specs =
  List.map
    (fun s ->
      { s with Wirgen.files = (1, 8); file_blocks = (16, 256); passes = (2, 8) })
    default_specs

(* A small machine for one program: the paper's disks, a cache small
   enough (128 blocks ~ 1 MB) that generated working sets overflow it
   and replacement actually runs. *)
let scenario_of p ~seed =
  Scenario.make ~seed ~cache_blocks:128 ~alloc_policy:Config.Lru_sp
    [ Scenario.inline_workload ~smart:(Wirgen.has_advice p) ~disk:0 p ]

(* Invariants 1 and 2: run the program on a real machine, then check
   the recorded demand stream against the fast-forwarded one. *)
let check_exec_and_references p ~seed =
  let sc = scenario_of p ~seed in
  match
    let recorder = Recorder.create () in
    let (_ : Acfc_workload.Runner.t) =
      Scenario.run ~tracer:(Recorder.tracer recorder) sc
    in
    Recorder.to_trace recorder
  with
  | exception e -> Error ("valid-exec", "exec raised: " ^ Printexc.to_string e)
  | recorded -> (
    match Scenario.workload_rngs sc with
    | [] | exception _ -> Error ("references", "no workload rng")
    | rng :: _ -> (
      match Wir.references ~rng p with
      | exception e -> Error ("references", "references raised: " ^ Printexc.to_string e)
      | expected ->
        if Array.length expected <> Array.length recorded then
          Error
            ( "references",
              Printf.sprintf "stream length %d, references gives %d"
                (Array.length recorded) (Array.length expected) )
        else (
          let bad = ref None in
          Array.iteri
            (fun i b ->
              if !bad = None && not (Block.equal b recorded.(i)) then bad := Some i)
            expected;
          match !bad with
          | None -> Ok ()
          | Some i ->
            Error
              ( "references",
                Printf.sprintf "streams diverge at reference %d: run saw %s, references gives %s"
                  i
                  (Format.asprintf "%a" Block.pp recorded.(i))
                  (Format.asprintf "%a" Block.pp expected.(i)) ))))

(* Invariant 3: the codec is the identity and the fingerprint is
   stable; a preserving mutant stays valid. *)
let check_roundtrip p ~mrng =
  let doc = Wir.to_string p in
  match Wir.of_string doc with
  | Error e -> Error ("roundtrip", "re-parse failed: " ^ e)
  | Ok p' ->
    if p' <> p then Error ("roundtrip", "re-parsed program differs")
    else if Wir.to_string p' <> doc then Error ("roundtrip", "re-printed JSON differs")
    else if Wir.hash p' <> Wir.hash p then Error ("roundtrip", "hash not stable")
    else (
      let kept = Mutate.preserve ~rng:mrng p in
      match Wir.validate kept with
      | Ok () -> Ok ()
      | Error e -> Error ("roundtrip", "preserving mutant rejected: " ^ e))

(* A strict rejection ends with the offending path: "... at $.x[1]". *)
let names_path e =
  let marker = " at $" in
  let m = String.length marker in
  let rec last i =
    if i < 0 then false
    else if String.sub e i m = marker then not (String.contains_from e (i + m) ' ')
    else last (i - 1)
  in
  last (String.length e - m)

(* Invariant 4: corruptions are rejected, and the diagnostic points at
   a path. *)
let check_reject p ~mrng ~semantic =
  if semantic then (
    let bad = Mutate.corrupt ~rng:mrng p in
    match Wir.validate bad with
    | Ok () -> Error ("reject", "corrupt program passed validate", Some (Wir.to_string bad))
    | Error e ->
      if names_path e then Ok ()
      else Error ("reject", "diagnostic has no $.path: " ^ e, Some (Wir.to_string bad)))
  else (
    let bad = Mutate.corrupt_json ~rng:mrng (Wir.to_json p) in
    let doc = Json.to_string bad in
    match Wir.of_json bad with
    | Ok _ -> Error ("reject", "corrupt JSON passed of_json", Some doc)
    | Error e ->
      if names_path e then Ok ()
      else Error ("reject", "diagnostic has no $.path: " ^ e, Some doc))

(* The line formats a run of the program emits, with values drawn from
   it: one trace record (the event kind rotates with the seed), a
   metrics registry for the monitor feed, and a bench report. *)
let trace_record p ~seed =
  let b = { Trace.file = Wir.file_count p; index = seed }
  and c = { Trace.file = 0; index = List.length p.Wir.ops } in
  let events =
    Trace.
      [
        Cache_hit { pid = 0; block = b };
        Cache_miss { pid = 1; block = b; prefetch = seed mod 2 = 0 };
        Evict
          { victim = b; owner = 0; candidate = c; policy = "LRU"; reason = "overrule" };
        Writeback { block = c };
        Swap { kept = b; victim = c };
        Placeholder_created { replaced = b; target = c; chooser = 0 };
        Placeholder_hit { missing = b; target = c; chooser = 1 };
        Manager_revoked { pid = 2 };
        Disk_io
          {
            disk = "rz56";
            kind = "read";
            addr = seed;
            blocks = 1;
            seek = 0.01;
            rot = 0.005;
            xfer = 0.001;
            wait = 0.0;
          };
        Syscall { pid = 0; op = "read"; detail = p.Wir.name };
        Fiber { name = p.Wir.name; op = "spawn" };
      ]
  in
  Trace.to_json
    {
      time = float_of_int seed /. 4.0;
      ev = List.nth events (seed mod List.length events)
    }

let metrics p =
  let m = Metrics.create () in
  Metrics.incr ~by:(List.length p.Wir.ops) (Metrics.counter m "wir.ops");
  Metrics.gauge m
    (Metrics.label "fleet.client.hits" [ ("client", "0") ])
    (fun () -> float_of_int (Wir.file_count p));
  Metrics.observe (Metrics.histogram m "disk.wait_s") 0.004;
  m

let bench_report p ~seed =
  let name = p.Wir.name and hash = Wir.hash p in
  {
    Bench_report.quick = true;
    runs = 1;
    jobs = 1;
    artifacts =
      [
        {
          name;
          wall_s = Float.nan;
          scenario_hash = Some hash;
          spec_hash = None;
          corpus_seed = Some seed;
        };
      ];
    micro = [ { name; ns_per_run = 12.5; r2 = Float.nan } ];
    perf = [ { name; ops_per_sec = 1e6; alloc_words_per_op = 3.5; ops = seed + 1 } ];
    tournament =
      [
        {
          family = name;
          policy = "LRU";
          corpus_seed = seed;
          spec_hash = hash;
          refs = 10;
          misses = 4;
          opt_misses = 3;
          regret = 1;
          hit_rate = 0.6;
        };
      ];
    total_wall_s = 1.0;
  }

(* The other strict documents a program travels in: the scenario
   [Wirgen.scenario] makes of it, its spec, a store manifest indexing
   both, and the run's trace, monitor and bench lines. Each comes with
   its codec's decoder. *)
let documents spec p ~seed =
  let scenario = Wirgen.scenario spec ~seed ~count:1 in
  let manifest =
    List.fold_left
      (fun m (kind, digest, bytes, label) ->
        match Manifest.add m ~kind ~digest ~bytes ~label:(Some label) with
        | Ok (m, _) -> m
        | Error e -> failwith e)
      Manifest.empty
      [
        (Kind.Wir_program, Wir.hash p, String.length (Wir.to_string p), p.Wir.name);
        ( Kind.Scenario,
          Scenario.hash scenario,
          String.length (Scenario.to_string scenario),
          "scenario:" ^ Scenario.hash scenario );
      ]
  in
  let decodes of_json j = Result.map ignore (of_json j) in
  let monitor j = Result.map ignore (Acfc_obs.Monitor.parse_line (Json.to_string j)) in
  [
    ("scenario", Scenario.to_json scenario, decodes Scenario.of_json);
    ("wirgen spec", Wirgen.to_json spec, decodes Wirgen.of_json);
    ("store manifest", Manifest.to_json manifest, decodes Manifest.of_json);
    ("trace record", trace_record p ~seed, decodes Trace.of_json);
    ( "bench report",
      Bench_report.to_json (bench_report p ~seed),
      decodes Bench_report.of_json );
  ]
  @ List.map
      (fun j -> ("monitor feed record", j, monitor))
      (Acfc_obs.Monitor.records ~scenario:(Scenario.hash scenario) (metrics p) ~now:1.5)

(* Invariant 4 for any strict document: it decodes as it stands, and
   every {!Mutate.corrupt_tree} mutant is rejected with a path. *)
let check_document ~mrng ~mutants (what, j, decode) =
  match decode j with
  | Error e ->
    [ (Printf.sprintf "%s: clean document rejected: %s" what e, Json.to_string j) ]
  | Ok () ->
    List.filter_map
      (fun _ ->
        let bad = Mutate.corrupt_tree ~rng:mrng j in
        match decode bad with
        | Ok () -> Some (what ^ ": corrupt document accepted", Json.to_string bad)
        | Error e when not (names_path e) ->
          Some (what ^ ": diagnostic has no $.path: " ^ e, Json.to_string bad)
        | Error _ -> None)
      (List.init mutants Fun.id)

let run ?progress ?(scenarios = []) ~specs ~seed ~programs ~mutants () =
  let failures = ref [] in
  let generated = ref 0 and mutated = ref 0 and checks = ref 0 in
  let by_category = Hashtbl.create 8 in
  let fail spec_name seed invariant detail program =
    failures := { spec_name; seed; invariant; detail; program } :: !failures
  in
  List.iter
    (fun spec ->
      (match progress with
      | Some f -> f (Printf.sprintf "fuzzing spec %s" spec.Wirgen.name)
      | None -> ());
      for i = 0 to programs - 1 do
        let pseed = seed + i in
        match Wirgen.generate spec ~seed:pseed with
        | exception e ->
          incr checks;
          fail spec.Wirgen.name pseed "valid-exec"
            ("generate raised: " ^ Printexc.to_string e)
            None
        | p ->
          incr generated;
          Hashtbl.replace by_category p.Wir.category
            (1 + Option.value ~default:0 (Hashtbl.find_opt by_category p.Wir.category));
          let record = function
            | Ok () -> incr checks
            | Error (invariant, detail) ->
              incr checks;
              fail spec.Wirgen.name pseed invariant detail (Some (Wir.to_string p))
          in
          (match Wir.validate p with
          | Ok () -> record (check_exec_and_references p ~seed:pseed)
          | Error e ->
            incr checks;
            fail spec.Wirgen.name pseed "valid-exec" ("generated program invalid: " ^ e)
              (Some (Wir.to_string p)));
          (* Mutant draws come from a per-program stream, so each
             program's cases replay from (spec, seed) alone. *)
          let mrng = Rng.create ((pseed * 31) + 7) in
          incr mutated;
          record (check_roundtrip p ~mrng);
          for m = 0 to mutants - 1 do
            incr mutated;
            incr checks;
            match check_reject p ~mrng ~semantic:(m mod 2 = 0) with
            | Ok () -> ()
            | Error (invariant, detail, doc) -> fail spec.Wirgen.name pseed invariant detail doc
          done;
          let examples =
            match scenarios with
            | [] -> []
            | l ->
              let name, j = List.nth l (i mod List.length l) in
              [ (name, j, fun j -> Result.map ignore (Scenario.of_json j)) ]
          in
          match documents spec p ~seed:pseed @ examples with
          | exception e ->
            incr checks;
            fail spec.Wirgen.name pseed "reject"
              ("building documents raised: " ^ Printexc.to_string e)
              None
          | docs ->
            List.iter
              (fun d ->
                mutated := !mutated + mutants;
                checks := !checks + 1 + mutants;
                List.iter
                  (fun (detail, doc) ->
                    fail spec.Wirgen.name pseed "reject" detail (Some doc))
                  (check_document ~mrng ~mutants d))
              docs
      done)
    specs;
  let by_category =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_category [])
  in
  ( { generated = !generated; mutated = !mutated; checks = !checks; by_category },
    List.rev !failures )

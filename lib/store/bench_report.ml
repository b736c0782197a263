module Json = Acfc_obs.Json

type artifact = {
  name : string;
  wall_s : float;
  scenario_hash : string option;
  spec_hash : string option;
  corpus_seed : int option;
}

type micro = { name : string; ns_per_run : float; r2 : float }

type perf = { name : string; ops_per_sec : float; alloc_words_per_op : float; ops : int }

type tournament = {
  family : string;
  policy : string;
  corpus_seed : int;
  spec_hash : string;
  refs : int;
  misses : int;
  opt_misses : int;
  regret : int;
  hit_rate : float;
}

type t = {
  quick : bool;
  runs : int;
  jobs : int;
  artifacts : artifact list;
  micro : micro list;
  perf : perf list;
  tournament : tournament list;
  total_wall_s : float;
}

let schema = "acfc-bench/1"

(* JSON has no NaN: an unmeasured number is null. *)
let num v = if Float.is_finite v then Json.Num v else Json.Null

let int n = Json.Num (float_of_int n)

let opt f = Option.fold ~none:Json.Null ~some:f

let str s = Json.Str s

let to_json t =
  let rows f l = Json.List (List.map (fun r -> Json.Obj (f r)) l) in
  Json.Obj
    [
      ("schema", str schema);
      ("quick", Json.Bool t.quick);
      ("runs", int t.runs);
      ("jobs", int t.jobs);
      ( "artifacts",
        rows
          (fun (a : artifact) ->
            [
              ("name", str a.name);
              ("wall_s", num a.wall_s);
              ("scenario_hash", opt str a.scenario_hash);
              ("spec_hash", opt str a.spec_hash);
              ("corpus_seed", opt int a.corpus_seed);
            ])
          t.artifacts );
      ( "micro",
        rows
          (fun (m : micro) ->
            [ ("name", str m.name); ("ns_per_run", num m.ns_per_run); ("r2", num m.r2) ])
          t.micro );
      ( "perf",
        rows
          (fun (p : perf) ->
            [
              ("name", str p.name);
              ("ops_per_sec", num p.ops_per_sec);
              ("alloc_words_per_op", num p.alloc_words_per_op);
              ("ops", int p.ops);
            ])
          t.perf );
      ( "tournament",
        rows
          (fun (r : tournament) ->
            [
              ("family", str r.family);
              ("policy", str r.policy);
              ("corpus_seed", int r.corpus_seed);
              ("spec_hash", str r.spec_hash);
              ("refs", int r.refs);
              ("misses", int r.misses);
              ("opt_misses", int r.opt_misses);
              ("regret", int r.regret);
              ("hit_rate", num r.hit_rate);
            ])
          t.tournament );
      ("total_wall_s", num t.total_wall_s);
    ]

let version = schema

let of_json =
  let open Json.Decode in
  let ( let* ) = Result.bind in
  let num = conv (fun v -> Ok (Option.value ~default:Float.nan v)) (nullable num) in
  let artifact =
    record [ "name"; "wall_s"; "scenario_hash"; "spec_hash"; "corpus_seed" ] (fun o ->
        let* name = req o "name" str in
        let* wall_s = req o "wall_s" num in
        let* scenario_hash = default o "scenario_hash" (nullable str) None in
        let* spec_hash = default o "spec_hash" (nullable str) None in
        let* corpus_seed = default o "corpus_seed" (nullable int) None in
        Ok ({ name; wall_s; scenario_hash; spec_hash; corpus_seed } : artifact))
  in
  let micro =
    record [ "name"; "ns_per_run"; "r2" ] (fun o ->
        let* name = req o "name" str in
        let* ns_per_run = req o "ns_per_run" num in
        let* r2 = req o "r2" num in
        Ok ({ name; ns_per_run; r2 } : micro))
  in
  let perf =
    record [ "name"; "ops_per_sec"; "alloc_words_per_op"; "ops" ] (fun o ->
        let* name = req o "name" str in
        let* ops_per_sec = req o "ops_per_sec" num in
        let* alloc_words_per_op = req o "alloc_words_per_op" num in
        let* ops = req o "ops" int in
        Ok ({ name; ops_per_sec; alloc_words_per_op; ops } : perf))
  in
  let tournament =
    record
      [
        "family"; "policy"; "corpus_seed"; "spec_hash"; "refs"; "misses";
        "opt_misses"; "regret"; "hit_rate";
      ]
      (fun o ->
        let i name = req o name int in
        let* family = req o "family" str in
        let* policy = req o "policy" str in
        let* corpus_seed = i "corpus_seed" in
        let* spec_hash = req o "spec_hash" str in
        let* refs = i "refs" in
        let* misses = i "misses" in
        let* opt_misses = i "opt_misses" in
        let* regret = i "regret" in
        let* hit_rate = req o "hit_rate" num in
        Ok
          ({
             family;
             policy;
             corpus_seed;
             spec_hash;
             refs;
             misses;
             opt_misses;
             regret;
             hit_rate;
           }
            : tournament))
  in
  let doc =
    record
      [
        "schema"; "quick"; "runs"; "jobs"; "artifacts"; "micro"; "perf"; "tournament";
        "total_wall_s";
      ]
      (fun o ->
        let* () = schema o version in
        let* quick = default o "quick" bool false in
        let* runs = default o "runs" int 0 in
        let* jobs = default o "jobs" int 0 in
        let* artifacts = default o "artifacts" (list artifact) [] in
        let* micro = default o "micro" (list micro) [] in
        let* perf = default o "perf" (list perf) [] in
        let* tournament = default o "tournament" (list tournament) [] in
        let* total_wall_s = default o "total_wall_s" num Float.nan in
        Ok { quick; runs; jobs; artifacts; micro; perf; tournament; total_wall_s })
  in
  run ~label:"bench report" doc

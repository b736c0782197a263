type counter = { mutable count : int }

let n_buckets = 44
let bucket_lo = 1e-6

type histogram = {
  buckets : int array;  (* last bucket = overflow *)
  mutable h_count : int;
  (* Sum, min and max in a float array, so [observe] stores unboxed
     floats instead of boxing mutable float fields. *)
  h_stats : float array;
}

let sum_i = 0

let min_i = 1

let max_i = 2

let fresh_stats () = [| 0.0; Float.infinity; Float.neg_infinity |]

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, unit -> float) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { count = 0 } in
    Hashtbl.replace t.counters name c;
    c

let incr ?(by = 1) c = c.count <- c.count + by

let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some c -> c.count | None -> 0

let gauge t name read = Hashtbl.replace t.gauges name read

let gauge_value t name =
  match Hashtbl.find_opt t.gauges name with Some read -> Some (read ()) | None -> None

(* Canonical label rendering: [name{k=v,k2=v2}], keys in the order
   given. One syntax everywhere means snapshot sorting groups a
   metric's label sets together and [gauge_sum]'s prefix match is a
   plain string test. *)
let label name labels =
  match labels with
  | [] -> name
  | _ ->
    let buf = Buffer.create (String.length name + 16) in
    Buffer.add_string buf name;
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_char buf '=';
        Buffer.add_string buf v)
      labels;
    Buffer.add_char buf '}';
    Buffer.contents buf

let gauge_sum t name =
  let prefix = name ^ "{" in
  let matches candidate =
    candidate = name
    || String.length candidate > String.length prefix
       && String.sub candidate 0 (String.length prefix) = prefix
  in
  gauge t name (fun () ->
      Hashtbl.fold
        (fun candidate read acc ->
          if candidate <> name && matches candidate then acc +. read () else acc)
        t.gauges 0.0)

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h =
      {
        buckets = Array.make n_buckets 0;
        h_count = 0;
        h_stats = fresh_stats ();
      }
    in
    Hashtbl.replace t.histograms name h;
    h

let bucket_index v =
  if v <= bucket_lo then 0
  else
    let i = int_of_float (Float.ceil (Float.log2 (v /. bucket_lo))) in
    if i >= n_buckets then n_buckets - 1 else i

let observe h v =
  let i = bucket_index v in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.h_count <- h.h_count + 1;
  let st = h.h_stats in
  st.(sum_i) <- st.(sum_i) +. v;
  if v < st.(min_i) then st.(min_i) <- v;
  if v > st.(max_i) then st.(max_i) <- v

let histogram_count t name =
  match Hashtbl.find_opt t.histograms name with Some h -> h.h_count | None -> 0

let sorted_names tbl =
  List.sort String.compare (Hashtbl.fold (fun name _ acc -> name :: acc) tbl [])

let bucket_bound i = bucket_lo *. Float.pow 2.0 (float_of_int i)

let histogram_json h =
  let buckets =
    List.filter_map
      (fun i ->
        if h.buckets.(i) = 0 then None
        else
          let le = if i = n_buckets - 1 then 0.0 else bucket_bound i in
          Some
            (Json.Obj
               [ ("le", Json.Num le); ("n", Json.Num (float_of_int h.buckets.(i))) ]))
      (List.init n_buckets Fun.id)
  in
  Json.Obj
    [
      ("count", Json.Num (float_of_int h.h_count));
      ("sum", Json.Num h.h_stats.(sum_i));
      ("min", Json.Num (if h.h_count = 0 then 0.0 else h.h_stats.(min_i)));
      ("max", Json.Num (if h.h_count = 0 then 0.0 else h.h_stats.(max_i)));
      ( "mean",
        Json.Num
          (if h.h_count = 0 then 0.0 else h.h_stats.(sum_i) /. float_of_int h.h_count) );
      ("buckets", Json.List buckets);
    ]

let snapshot t ~now =
  let counters =
    List.map
      (fun name ->
        (name, Json.Num (float_of_int (Hashtbl.find t.counters name).count)))
      (sorted_names t.counters)
  in
  let gauges =
    List.map
      (fun name -> (name, Json.Num ((Hashtbl.find t.gauges name) ())))
      (sorted_names t.gauges)
  in
  let histograms =
    List.map
      (fun name -> (name, histogram_json (Hashtbl.find t.histograms name)))
      (sorted_names t.histograms)
  in
  Json.Obj
    [
      ("now", Json.Num now);
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj histograms);
    ]

let reset t =
  Hashtbl.iter (fun _ c -> c.count <- 0) t.counters;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.buckets 0 n_buckets 0;
      h.h_count <- 0;
      Array.blit (fresh_stats ()) 0 h.h_stats 0 3)
    t.histograms

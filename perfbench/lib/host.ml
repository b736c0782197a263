let reference_s = 0.005

(* 40,000 references over 4,096 keys into a 2,048-entry cache: a hash
   table of allocated entries evicted in FIFO order, the same mix of
   hashing, pointer chasing and short-lived allocation as a cache
   simulation. *)
let kernel () =
  let capacity = 2048 in
  let table = Hashtbl.create capacity in
  let order = Queue.create () in
  let x = ref 17 and hits = ref 0 in
  for _ = 1 to 40_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let key = (!x lsr 4) mod 4096 in
    match Hashtbl.find_opt table key with
    | Some n ->
      incr hits;
      incr n
    | None ->
      if Hashtbl.length table >= capacity then Hashtbl.remove table (Queue.pop order);
      Hashtbl.replace table key (ref 0);
      Queue.push key order
  done;
  !hits

let probe () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  Unix.gettimeofday () -. t0

let scale ~before ~after wall = wall *. reference_s /. ((before +. after) /. 2.0)

let radius = 5

let normalise ~probes walls =
  let n = Array.length walls in
  if Array.length probes <> n then invalid_arg "Host.normalise: one probe per operation";
  Array.mapi
    (fun i wall ->
      let lo = Stdlib.max 0 (i - radius) and hi = Stdlib.min (n - 1) (i + radius) in
      let around = Array.to_list (Array.sub probes lo (hi - lo + 1)) in
      wall *. reference_s /. Stats.median around)
    walls

let recorded = ref None

let start () = recorded := Some []

let tick () =
  match !recorded with
  | None -> ()
  | Some probes -> recorded := Some (probe () :: probes)

let stop () =
  let probes = Option.value ~default:[] !recorded in
  recorded := None;
  Array.of_list (List.rev probes)

(* The unified policy core: registry lookup, offline/live adapter
   equivalence (the determinism contract of DESIGN.md section 9), and
   property suites for the adaptive cores. *)

open Tutil
module Core = Acfc_core
module P = Acfc_policy
module Pc = Acfc_policy.Policy_core

let render_victims vs =
  String.concat ", " (List.map (fun b -> Fmt.str "%a" Core.Block.pp b) vs)

(* {2 Demand streams} *)

(* Three deterministic traces that force plenty of evictions: a cyclic
   scan (the LRU worst case), a skewed pseudo-random stream, and a
   two-file interleave exercising the file-id feature of the
   perceptron. *)
let streams () =
  let cyclic = Array.init 140 (fun i -> blk (i mod 24)) in
  let skewed =
    let r = Acfc_sim.Rng.create 42 in
    Array.init 400 (fun _ ->
        let x = Acfc_sim.Rng.int r 64 in
        blk (if x < 40 then x mod 12 else x))
  in
  let two_file =
    Array.init 300 (fun i ->
        if i mod 3 = 0 then blk ~file:1 (i mod 10) else blk (i * 7 mod 40))
  in
  [ ("cyclic", 16, cyclic); ("skewed", 24, skewed); ("two-file", 12, two_file) ]

(* {2 Offline and live harnesses} *)

type run = { hits : int; misses : int; victims : Core.Block.t list }

(* The offline replay loop, collecting the victim sequence through its
   eviction callback. *)
let offline_replay entry ~capacity trace =
  let victims = ref [] in
  let hits =
    Pc.replay entry ~capacity trace ~evicted:(fun _ v -> victims := v :: !victims)
  in
  { hits; misses = Array.length trace - hits; victims = List.rev !victims }

(* Run a core as a live [fbehavior] manager: a real cache, one attached
   manager, the plug-in installed through [Control], victims recorded
   from [Evict] tracer events. *)
let live_replay entry ~capacity trace =
  let cache = Core.Cache.create (config capacity) in
  let p0 = pid 0 in
  let control = ok_exn (Core.Control.attach cache p0) in
  let adapter = P.Live.make entry ~capacity ~future:trace () in
  ok_exn (P.Live.install adapter control);
  let victims = ref [] in
  Core.Cache.set_tracer cache
    (Some
       (function
       | Core.Event.Evict e -> victims := e.victim :: !victims
       | _ -> ()));
  let hits = ref 0 and misses = ref 0 in
  Array.iter
    (fun b ->
      match Core.Cache.read cache ~pid:p0 b with
      | `Hit -> incr hits
      | `Miss -> incr misses)
    trace;
  { hits = !hits; misses = !misses; victims = List.rev !victims }

(* The tentpole assertion: for every registered policy, the offline
   replay and the live manager path produce the identical victim
   sequence and hit/miss counts from the same demand stream. *)
let offline_live_identity () =
  List.iter
    (fun entry ->
      let name = P.Registry.name entry in
      List.iter
        (fun (stream, capacity, trace) ->
          let off = offline_replay entry ~capacity trace in
          let live = live_replay entry ~capacity trace in
          let tag what = Fmt.str "%s/%s %s" name stream what in
          check Alcotest.string (tag "victims")
            (render_victims off.victims)
            (render_victims live.victims);
          chk_int (tag "hits") off.hits live.hits;
          chk_int (tag "misses") off.misses live.misses;
          chk_bool (tag "evictions happened") true (off.victims <> []))
        (streams ()))
    P.Registry.all

(* {2 Registry} *)

let ok_exn' = function Ok v -> v | Error e -> Alcotest.fail e

let registry_contents () =
  chk_int "eleven cores" 11 (List.length P.Registry.all);
  let names = P.Registry.names in
  check Alcotest.(list string) "registration order"
    [
      "LRU"; "MRU"; "FIFO"; "CLOCK"; "LRU-2"; "2Q"; "RAND"; "OPT"; "ARC";
      "AWRP"; "PERCEPTRON";
    ]
    names;
  let opt = ok_exn' (P.Registry.find "opt") in
  chk_bool "OPT needs the future" true (P.Registry.needs_future opt);
  let arc = ok_exn' (P.Registry.find "Arc") in
  chk_bool "ARC is adaptive" true (P.Registry.adaptive arc);
  chk_bool "ARC is online" false (P.Registry.needs_future arc);
  List.iter
    (fun e -> chk_bool "has a summary" true (P.Registry.summary e <> ""))
    P.Registry.all

let registry_errors () =
  (match P.Registry.find "zzzzzz" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error msg ->
      chk_bool "lists valid names" true (contains_sub ~sub:"PERCEPTRON" msg);
      chk_bool "no suggestion for garbage" false
        (contains_sub ~sub:"did you mean" msg));
  match P.Registry.find "clok" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error msg ->
      chk_bool "suggests nearest" true
        (contains_sub ~sub:{|did you mean "CLOCK"|} msg)

(* {2 Adaptive-core properties} *)

(* Drive a core by hand with the standard full-cache discipline, calling
   [check] on its stats after every event. *)
let drive (module C : Pc.CORE) ~capacity trace ~check:check_stats =
  let t = C.create ~capacity ~future:trace in
  let resident = Hashtbl.create 64 in
  Array.iteri
    (fun pos b ->
      (if Hashtbl.mem resident b then
         C.on_event t (Pc.Reference { pos; block = b })
       else begin
         if Hashtbl.length resident >= capacity then begin
           let v = C.victim t ~pos ~missing:b in
           Hashtbl.remove resident v;
           C.on_event t (Pc.Evict { block = v })
         end;
         Hashtbl.add resident b ();
         C.on_event t (Pc.Admit { pos; block = b })
       end);
      check_stats (C.stats t))
    trace

let trace_gen =
  QCheck2.Gen.(
    pair (int_range 2 8) (list_size (int_range 1 300) (int_range 0 25)))

let arc_ghost_bound =
  qcheck ~count:200 "ARC ghost lists stay within capacity" trace_gen
    (fun (cap, refs) ->
      let trace = Array.of_list (List.map blk refs) in
      let ok = ref true in
      drive
        (module P.Cores.Arc)
        ~capacity:cap trace
        ~check:(fun stats ->
          let get k = List.assoc k stats in
          let bound = float_of_int cap in
          if get "b1" > bound || get "b2" > bound then ok := false;
          if get "p" < 0. || get "p" > bound then ok := false);
      !ok)

let awrp_deterministic =
  qcheck ~count:100 "AWRP replays bit-identically" trace_gen (fun (cap, refs) ->
      let trace = Array.of_list (List.map blk refs) in
      let a = offline_replay (module P.Cores.Awrp) ~capacity:cap trace in
      let b = offline_replay (module P.Cores.Awrp) ~capacity:cap trace in
      a.victims = b.victims && a.hits = b.hits)

let awrp_weight_clamped =
  qcheck ~count:100 "AWRP weight stays clamped" trace_gen (fun (cap, refs) ->
      let trace = Array.of_list (List.map blk refs) in
      let ok = ref true in
      drive
        (module P.Cores.Awrp)
        ~capacity:cap trace
        ~check:(fun stats ->
          let w = List.assoc "w" stats in
          if w < 0.05 -. 1e-12 || w > 0.95 +. 1e-12 then ok := false);
      !ok)

let perceptron_finite_and_deterministic =
  qcheck ~count:100 "perceptron weights finite, replay bit-identical"
    trace_gen (fun (cap, refs) ->
      let trace = Array.of_list (List.map blk refs) in
      let ok = ref true in
      drive
        (module P.Cores.Perceptron)
        ~capacity:cap trace
        ~check:(fun stats ->
          List.iter
            (fun (k, v) ->
              if String.length k = 2 && k.[0] = 'w' then
                if not (Float.is_finite v) || Float.abs v > 4.0 +. 1e-12 then
                  ok := false)
            stats);
      let a = offline_replay (module P.Cores.Perceptron) ~capacity:cap trace in
      let b = offline_replay (module P.Cores.Perceptron) ~capacity:cap trace in
      !ok && a.victims = b.victims)

(* {2 Cores vs their twins, event by event}

   Every online core answers victim queries from indexed state — AWRP
   from 16 frequency buckets, PERCEPTRON from per-class heaps, LRU-2
   from an indexed heap, FIFO, CLOCK and 2Q from slab lists, RAND from
   a swap-with-last array; the twins in [Reference] are naive scans and
   lists. Both sides of a pair see the same random event stream:
   references, misses, hints (to resident and non-resident blocks, at
   negative and very large levels), invalidations, re-admits, bursts of
   references that carry a block's count across 255 and 256, and
   evictions that sometimes overrule the named victim, as a live kernel
   may. Blocks come from five files, so PERCEPTRON's file-hash bytes
   differ. Alphabets are small and positions sometimes jump far ahead,
   so equal ranks (float ties) are common. The two must name the same
   victim at every miss and, where the twin reports stats, end with the
   same stats. *)

let lockstep_gen =
  QCheck2.Gen.(
    triple (int_range 1 8) (int_range 2 40)
      (list_size (int_range 1 400)
         (triple (int_range 0 99) (int_range 0 99) (int_range 0 9))))

(* Hint levels by the op's [y]: PERCEPTRON interns any int as a class
   component, so the edges of the int range are in play. *)
let levels = [| 0; 1; 3; -1; -8; 255; 1 lsl 40; max_int; min_int; 2 |]

let lockstep_core ?(stats = true) (module A : Pc.CORE) (module B : Pc.CORE)
    (cap, alphabet, steps) =
  let a = A.create ~capacity:cap ~future:[||] in
  let b = B.create ~capacity:cap ~future:[||] in
  let feed ev =
    A.on_event a ev;
    B.on_event b ev
  in
  let resident = ref [] and pos = ref 0 in
  let nth_resident i = List.nth !resident (i mod List.length !resident) in
  let drop block = resident := List.filter (fun x -> x <> block) !resident in
  let block_of id = blk ~file:(id mod 5) (id / 5) in
  let demand ~x ~y block =
    if List.mem block !resident then feed (Pc.Reference { pos = !pos; block })
    else begin
      if List.length !resident >= cap then begin
        let va = A.victim a ~pos:!pos ~missing:block in
        let vb = B.victim b ~pos:!pos ~missing:block in
        if va <> vb then
          QCheck2.Test.fail_reportf "%s named %a, %s named %a at pos %d" A.name
            Core.Block.pp va B.name Core.Block.pp vb !pos;
        (* Now and then the kernel overrules the named victim. *)
        let out = if y = 0 then nth_resident x else va in
        drop out;
        feed (Pc.Evict { block = out })
      end;
      resident := block :: !resident;
      feed (Pc.Admit { pos = !pos; block })
    end;
    incr pos
  in
  List.iter
    (fun (op, x, y) ->
      if op < 55 then demand ~x ~y (block_of (x mod alphabet))
      else if op < 68 then begin
        if !resident <> [] then begin
          let block = nth_resident x in
          drop block;
          feed (Pc.Invalidate { block });
          (* Half the time the block is demanded straight back. *)
          if y mod 2 = 0 then demand ~x ~y:1 block
        end
      end
      else if op < 72 then begin
        (* A burst of 250-259 references to one resident block. *)
        if !resident <> [] then begin
          let block = nth_resident x in
          for _ = 1 to 250 + y do
            demand ~x ~y:1 block
          done
        end
      end
      else begin
        feed (Pc.Hint { block = block_of (x mod alphabet); level = levels.(y) });
        (* Positions need only increase. A long jump makes recencies so
           small that blocks in one frequency bucket round to equal
           ranks. *)
        if y = 9 then pos := !pos + (1 lsl 32)
      end)
    steps;
  if stats && A.stats a <> B.stats b then
    QCheck2.Test.fail_reportf "%s and %s stats differ after the stream" A.name B.name;
  true

let awrp_matches_scan =
  qcheck ~count:1000 "AWRP buckets name the scan twin's victims" lockstep_gen
    (lockstep_core (module P.Cores.Awrp) (module Acfc_oracle.Reference.Awrp_scan))

let perceptron_matches_scan =
  qcheck ~count:1000 "PERCEPTRON classes name the scan twin's victims"
    lockstep_gen
    (lockstep_core
       (module P.Cores.Perceptron)
       (module Acfc_oracle.Reference.Perceptron_scan))

(* The stock online cores against their record twins. Only 2Q's twin
   reports stats (its queue lengths); the others report none. *)
let stock_match_twins =
  let module R = Acfc_oracle.Reference in
  List.map
    (fun (label, core, twin, stats) ->
      qcheck ~count:300
        (Printf.sprintf "%s core names the record twin's victims" label)
        lockstep_gen (lockstep_core ~stats core twin))
    [
      ("LRU-2", (module P.Cores.Lru_2 : Pc.CORE), (module R.Lru_2 : Pc.CORE), false);
      ("FIFO", (module P.Cores.Fifo), (module R.Fifo), false);
      ("CLOCK", (module P.Cores.Clock), (module R.Clock), false);
      ("2Q", (module P.Cores.Two_q), (module R.Two_q), true);
      ("RAND", (module P.Cores.Rand), (module R.Rand), false);
    ]

(* An invalidation is not a replacement decision, so it leaves no 2Q
   ghost: a block admitted to A1in, invalidated and admitted again lands
   in A1in, not the protected queue. With capacity 4 (kin = 1), after
   X, Y and Z sit in A1in the victim is X, the oldest; had X been
   promoted, A1in would hold Y and Z and the victim would be Y. *)
let two_q_invalidate_no_ghost () =
  let x = blk 1 and y = blk 2 and z = blk 3 in
  let run (module C : Pc.CORE) =
    let t = C.create ~capacity:4 ~future:[||] in
    C.on_event t (Pc.Admit { pos = 0; block = x });
    C.on_event t (Pc.Invalidate { block = x });
    C.on_event t (Pc.Admit { pos = 1; block = x });
    C.on_event t (Pc.Admit { pos = 2; block = y });
    C.on_event t (Pc.Admit { pos = 3; block = z });
    (C.victim t ~pos:4 ~missing:(blk 4), C.stats t)
  in
  let core_victim, core_stats = run (module P.Cores.Two_q) in
  let twin_victim, twin_stats = run (module Acfc_oracle.Reference.Two_q) in
  let expect = [ ("a1in", 3.0); ("am", 0.0); ("ghost", 0.0) ] in
  chk_bool "core: X stays in A1in" true (core_stats = expect);
  chk_bool "twin: X stays in A1in" true (twin_stats = expect);
  check Alcotest.string "core victim" "f0[1]" (Fmt.str "%a" Core.Block.pp core_victim);
  check Alcotest.string "twin victim" "f0[1]" (Fmt.str "%a" Core.Block.pp twin_victim)

(* OPT consumes the future stream in order: an admit at a position that
   is not the block's next one fails. *)
let opt_position_mismatch () =
  let trace = [| blk 0; blk 1; blk 0 |] in
  let t = P.Cores.Opt.create ~capacity:2 ~future:trace in
  P.Cores.Opt.on_event t (Pc.Admit { pos = 0; block = blk 0 });
  Alcotest.check_raises "skipped position" (Failure "OPT: stream position mismatch")
    (fun () -> P.Cores.Opt.on_event t (Pc.Reference { pos = 1; block = blk 0 }));
  Alcotest.check_raises "wrong admit" (Failure "OPT: stream position mismatch")
    (fun () -> P.Cores.Opt.on_event t (Pc.Admit { pos = 2; block = blk 1 }))

(* {2 Live adapter odds and ends} *)

let live_surface () =
  let entry = ok_exn' (P.Registry.find "arc") in
  let adapter = P.Live.make entry ~capacity:8 () in
  check Alcotest.string "adapter name" "ARC" (P.Live.name adapter);
  chk_bool "stats exposed" true (P.Live.stats adapter <> [])

let suites =
  [
    ( "policy_core",
      [
        case "offline and live adapters agree" offline_live_identity;
        case "registry contents" registry_contents;
        case "registry errors" registry_errors;
        case "live adapter surface" live_surface;
        arc_ghost_bound;
        awrp_deterministic;
        awrp_weight_clamped;
        perceptron_finite_and_deterministic;
        awrp_matches_scan;
        perceptron_matches_scan;
        case "2Q: invalidation leaves no ghost" two_q_invalidate_no_ghost;
        case "OPT: stream position mismatch" opt_position_mismatch;
      ]
      @ stock_match_twins );
  ]

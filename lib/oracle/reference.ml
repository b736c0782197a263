(* Naive record-based reference twins of the policy cores.

   One twin per stock policy, each a deliberately boring list/scan
   implementation of {!Acfc_policy.Policy_core.CORE}, kept so the
   equivalence tests and the bench [check] replay can prove the cores in
   {!Acfc_policy.Cores} choose the same victims. The scans use the same
   deterministic total orders as their indexed counterparts: LRU-2's
   (penultimate, last) key was already total (last-reference positions
   are unique); OPT's never-used-again tier is broken by the block
   identity (any choice in that tier yields the same miss count); RAND's
   twin replays the same swap-with-last discipline over a plain list so
   the shared RNG draw sequence lands on the same block. The stock
   policies ignore [Hint]; all but 2Q treat [Invalidate] as [Evict],
   and 2Q, like its core, records no ghost for an invalidation. The
   qcheck lockstep in [test/test_policy_core.ml] drives the twins with
   invalidations, hints and overruled victims. O(n) per miss — do not
   use outside tests and benches. *)

module Block = Acfc_core.Block
module Policy_core = Acfc_policy.Policy_core
open Policy_core

(* The CORE fields every stock twin shares. *)
module Twin = struct
  let summary = "naive record twin (tests and benches only)"

  let adaptive = false

  let needs_future = false

  let stats _ = []
end

let without block l = List.filter (fun b -> not (Block.equal b block)) l

(* Recency twin for LRU/MRU: most recent first, O(n) moves. *)
module Recency_ref = struct
  include Twin

  type t = { mutable order : Block.t list }

  let create ~capacity:_ ~future:_ = { order = [] }

  let on_event t = function
    | Reference { block; _ } -> t.order <- block :: without block t.order
    | Admit { block; _ } -> t.order <- block :: t.order
    | Evict { block } | Invalidate { block } -> t.order <- without block t.order
    | Hint _ -> ()
end

module Lru = struct
  include Recency_ref

  let name = "LRU-REF"

  let victim t ~pos:_ ~missing:_ =
    match List.rev t.order with
    | oldest :: _ -> oldest
    | [] -> failwith "LRU-REF: empty"
end

module Mru = struct
  include Recency_ref

  let name = "MRU-REF"

  let victim t ~pos:_ ~missing:_ =
    match t.order with newest :: _ -> newest | [] -> failwith "MRU-REF: empty"
end

module Fifo = struct
  include Twin

  type t = { mutable order : Block.t list }  (* oldest admission first *)

  let name = "FIFO-REF"

  let create ~capacity:_ ~future:_ = { order = [] }

  let victim t ~pos:_ ~missing:_ =
    match t.order with oldest :: _ -> oldest | [] -> failwith "FIFO-REF: empty"

  let on_event t = function
    | Reference _ | Hint _ -> ()
    | Admit { block; _ } -> t.order <- t.order @ [ block ]
    | Evict { block } | Invalidate { block } -> t.order <- without block t.order
end

module Clock = struct
  include Twin

  type t = {
    mutable ring : Block.t list;  (* hand position first *)
    referenced : (Block.t, unit) Hashtbl.t;
  }

  let name = "CLOCK-REF"

  let create ~capacity:_ ~future:_ = { ring = []; referenced = Hashtbl.create 64 }

  let rec victim t ~pos ~missing =
    match t.ring with
    | [] -> failwith "CLOCK-REF: empty"
    | block :: rest ->
      if Hashtbl.mem t.referenced block then begin
        Hashtbl.remove t.referenced block;
        t.ring <- rest @ [ block ];
        victim t ~pos ~missing
      end
      else block

  let on_event t = function
    | Reference { block; _ } -> Hashtbl.replace t.referenced block ()
    | Admit { block; _ } -> t.ring <- t.ring @ [ block ]
    | Evict { block } | Invalidate { block } ->
      t.ring <- without block t.ring;
      Hashtbl.remove t.referenced block
    | Hint _ -> ()
end

module Rand = struct
  include Twin

  (* Same seed, same draws, same swap-with-last slot discipline as the
     core — expressed over a plain list indexed positionally. *)
  type t = { rng : Acfc_sim.Rng.t; mutable slots : Block.t list }

  let name = "RAND-REF"

  let create ~capacity ~future:_ =
    { rng = Acfc_sim.Rng.create (capacity + 7); slots = [] }

  let victim t ~pos:_ ~missing:_ =
    match t.slots with
    | [] -> failwith "RAND-REF: empty"
    | slots -> List.nth slots (Acfc_sim.Rng.int t.rng (List.length slots))

  let removed t block =
    match List.rev t.slots with
    | [] -> ()
    | _ when not (List.exists (Block.equal block) t.slots) -> ()
    | last :: _ ->
      let filled = List.map (fun b -> if Block.equal b block then last else b) t.slots in
      (* Drop the (now duplicated) final slot. *)
      let n = List.length filled - 1 in
      t.slots <- List.filteri (fun i _ -> i < n) filled

  let on_event t = function
    | Reference _ | Hint _ -> ()
    | Admit { block; _ } -> t.slots <- t.slots @ [ block ]
    | Evict { block } | Invalidate { block } -> removed t block
end

module Two_q = struct
  include Twin

  type t = {
    kin : int;
    kout : int;
    mutable a1in : Block.t list;  (* oldest first *)
    mutable am : Block.t list;  (* most recent first *)
    mutable a1out : Block.t list;  (* oldest ghost first *)
  }

  let name = "2Q-REF"

  let stats t =
    [
      ("a1in", float_of_int (List.length t.a1in));
      ("am", float_of_int (List.length t.am));
      ("ghost", float_of_int (List.length t.a1out));
    ]

  let create ~capacity ~future:_ =
    {
      kin = Stdlib.max 1 (capacity / 4);
      kout = Stdlib.max 1 (capacity / 2);
      a1in = [];
      am = [];
      a1out = [];
    }

  let victim t ~pos:_ ~missing:_ =
    if List.length t.a1in > t.kin || t.am = [] then
      match t.a1in with
      | oldest :: _ -> oldest
      | [] -> failwith "2Q-REF: empty"
    else
      match List.rev t.am with oldest :: _ -> oldest | [] -> assert false

  let removed t block =
    if List.exists (Block.equal block) t.a1in then begin
      t.a1in <- without block t.a1in;
      t.a1out <- t.a1out @ [ block ];
      let overflow = List.length t.a1out - t.kout in
      if overflow > 0 then t.a1out <- List.filteri (fun i _ -> i >= overflow) t.a1out
    end
    else t.am <- without block t.am

  let on_event t = function
    | Reference { block; _ } ->
      if List.exists (Block.equal block) t.am then t.am <- block :: without block t.am
    | Admit { block; _ } ->
      (* A ghost entry survives promotion (it only leaves A1out by aging
         past kout), exactly like the indexed ghost table. *)
      if List.exists (Block.equal block) t.a1out then t.am <- block :: t.am
      else t.a1in <- t.a1in @ [ block ]
    | Evict { block } -> removed t block
    | Invalidate { block } ->
      (* Invalidation is not a replacement decision: no ghost entry. *)
      t.a1in <- without block t.a1in;
      t.am <- without block t.am
    | Hint _ -> ()
end

module Lru_2 = struct
  include Twin

  type t = { history : (Block.t, int * int) Hashtbl.t }

  let name = "LRU-2-REF"

  let never = -1

  let create ~capacity:_ ~future:_ = { history = Hashtbl.create 1024 }

  let record t ~pos block =
    let last, _ = Option.value (Hashtbl.find_opt t.history block) ~default:(never, never) in
    Hashtbl.replace t.history block (pos, last)

  let victim t ~pos:_ ~missing:_ =
    let best = ref None in
    Hashtbl.iter
      (fun block (last, penultimate) ->
        let better =
          match !best with
          | None -> true
          | Some (_, (blast, bpenultimate)) ->
            penultimate < bpenultimate
            || (penultimate = bpenultimate && last < blast)
        in
        if better then best := Some (block, (last, penultimate)))
      t.history;
    match !best with Some (block, _) -> block | None -> failwith "LRU-2-REF: empty"

  let on_event t = function
    | Reference { pos; block } | Admit { pos; block } -> record t ~pos block
    | Evict { block } | Invalidate { block } -> Hashtbl.remove t.history block
    | Hint _ -> ()
end

module Opt = struct
  include Twin

  type t = {
    future : (Block.t, int list ref) Hashtbl.t;
    resident : (Block.t, unit) Hashtbl.t;
  }

  let name = "OPT-REF"

  let needs_future = true

  let create ~capacity:_ ~future:trace =
    let future = Hashtbl.create 1024 in
    Array.iteri
      (fun pos block ->
        match Hashtbl.find_opt future block with
        | Some l -> l := pos :: !l
        | None -> Hashtbl.replace future block (ref [ pos ]))
      trace;
    Hashtbl.iter (fun _ l -> l := List.rev !l) future;
    { future; resident = Hashtbl.create 1024 }

  let consume t ~pos block =
    let l = Hashtbl.find t.future block in
    match !l with
    | p :: rest when p = pos -> l := rest
    | _ -> failwith "OPT-REF: trace position mismatch"

  let next_use t block =
    match !(Hashtbl.find t.future block) with [] -> max_int | p :: _ -> p

  let victim t ~pos:_ ~missing:_ =
    let best = ref None in
    Hashtbl.iter
      (fun block () ->
        let use = next_use t block in
        let better =
          match !best with
          | None -> true
          | Some (bblock, buse) ->
            use > buse || (use = buse && Block.compare block bblock > 0)
        in
        if better then best := Some (block, use))
      t.resident;
    match !best with Some (block, _) -> block | None -> failwith "OPT-REF: empty"

  let on_event t = function
    | Reference { pos; block } -> consume t ~pos block
    | Admit { pos; block } ->
      consume t ~pos block;
      Hashtbl.replace t.resident block ()
    | Evict { block } | Invalidate { block } -> Hashtbl.remove t.resident block
    | Hint _ -> ()
end

(* The eviction sequence of [core] over [trace] through the one replay
   loop, as (position, victim) pairs in order. *)
let evictions core ~capacity trace =
  let out = ref [] in
  ignore
    (Policy_core.replay core ~capacity trace ~evicted:(fun pos v ->
         out := (pos, v) :: !out));
  List.rev !out

(* Replay both cores independently and compare their eviction
   sequences. Up to the first differing victim the two runs hold the
   same resident set and see the same events, so they evict at the same
   positions; the first divergence is reported as
   [(position, a's victim, b's victim)]. *)
let first_divergence a b ~capacity trace =
  let rec go = function
    | (pos, va) :: ra, (_, vb) :: rb ->
      if Block.equal va vb then go (ra, rb) else Some (pos, va, vb)
    | _ -> None
  in
  go (evictions a ~capacity trace, evictions b ~capacity trace)

(* {2 Scan twins of the adaptive cores}

   AWRP and PERCEPTRON as they were before their columnar rewrite in
   {!Acfc_policy.Cores}: per-block records in a polymorphic [Hashtbl],
   and a victim query that scans every resident block for an explicit
   (value, block) minimum. Kept as oracles for the lockstep in
   [test/test_policy_core.ml] and [bench check] and as the naive side of the
   [policy-miss/awrp] and [policy-miss/perceptron] speedup rows. O(n)
   and allocating per miss — do not use outside tests and benches. *)

module Islab = Acfc_policy.Islab

module Awrp_scan = struct
  (* Adaptive Weight Ranking Policy (arXiv:1107.4851): every resident
     block is ranked by a weighted sum of a frequency term and a recency
     term; the weight itself adapts online. A ghost list remembers
     recently evicted blocks with their reference counts — when an
     evicted block returns, the mix is nudged toward the term that would
     have kept it (frequency if it was referenced repeatedly, recency
     otherwise). All arithmetic is RNG-free and the victim scan uses an
     order-independent minimum, so a fixed stream replays
     bit-identically. *)
  type info = { mutable cnt : int; mutable last : int }

  type t = {
    resident : (Block.t, info) Hashtbl.t;
    ghost : Islab.t;  (* recent evictions, MRU at front, <= cap *)
    ghost_cnt : (Block.t, int) Hashtbl.t;
    cap : int;
    mutable w : float;  (* frequency weight, 0.05 .. 0.95 *)
    mutable nudges : int;
  }

  let name = "AWRP-SCAN"

  let summary = "adaptive weighted frequency+recency ranking (arXiv:1107.4851)"

  let adaptive = true

  let needs_future = false

  let step = 0.05

  let w_min = 0.05

  let w_max = 0.95

  let create ~capacity ~future:_ =
    {
      resident = Hashtbl.create (4 * capacity);
      ghost = Islab.create capacity;
      ghost_cnt = Hashtbl.create (4 * capacity);
      cap = Stdlib.max 1 capacity;
      w = 0.5;
      nudges = 0;
    }

  let touch t ~pos block =
    match Hashtbl.find_opt t.resident block with
    | Some i ->
      i.cnt <- i.cnt + 1;
      i.last <- pos
    | None -> failwith "AWRP: reference to non-resident block"

  let forget_ghost t block =
    Islab.remove t.ghost block;
    Hashtbl.remove t.ghost_cnt block

  let on_event t = function
    | Reference { pos; block } -> touch t ~pos block
    | Admit { pos; block } ->
      (match Hashtbl.find_opt t.ghost_cnt block with
      | Some cnt ->
        (* The stream disagreed with an eviction: favour the term that
           would have retained this block. *)
        if cnt >= 2 then t.w <- Stdlib.min w_max (t.w +. step)
        else t.w <- Stdlib.max w_min (t.w -. step);
        t.nudges <- t.nudges + 1;
        forget_ghost t block
      | None -> ());
      Hashtbl.replace t.resident block { cnt = 1; last = pos }
    | Evict { block } ->
      (match Hashtbl.find_opt t.resident block with
      | Some i ->
        Islab.push_front t.ghost block;
        Hashtbl.replace t.ghost_cnt block i.cnt;
        while Islab.length t.ghost > t.cap do
          let b = Islab.back t.ghost in
          forget_ghost t b
        done
      | None -> ());
      Hashtbl.remove t.resident block
    | Invalidate { block } -> Hashtbl.remove t.resident block
    | Hint _ -> ()

  (* Rank = w * saturating-frequency + (1-w) * recency; evict the
     minimum. The fold computes an explicit (value, block) minimum with
     a [Block.compare] tie-break, so the choice is independent of table
     iteration order. *)
  let victim t ~pos ~missing:_ =
    let best = ref None in
    Hashtbl.iter
      (fun block i ->
        let freq = Stdlib.min 1.0 (float_of_int i.cnt /. 16.0) in
        let recency = 1.0 /. float_of_int (1 + pos - i.last) in
        let value = (t.w *. freq) +. ((1.0 -. t.w) *. recency) in
        match !best with
        | None -> best := Some (value, block)
        | Some (bv, bb) ->
          if value < bv || (value = bv && Block.compare block bb < 0) then
            best := Some (value, block))
      t.resident;
    match !best with
    | Some (_, block) -> block
    | None -> failwith "AWRP: empty"

  let stats t =
    [
      ("w", t.w);
      ("nudges", float_of_int t.nudges);
      ("ghost", float_of_int (Islab.length t.ghost));
      ("resident", float_of_int (Hashtbl.length t.resident));
    ]
end

module Perceptron_scan = struct
  (* LearnedCache-style perceptron eviction: each resident block is
     scored by a dot product of learned weights with a feature vector
     (bias, recency rank, saturating log reference count, priority-level
     hint, file-id hash); the lowest score is evicted. Learning is
     ghost-driven: evicting a block that promptly returns was a mistake
     (weights move toward its features); a ghost expiring un-referenced
     confirms the eviction (weights move away). Weights are clamped, so
     they stay finite on any stream — asserted by qcheck. *)
  let n_features = 5

  let lr = 0.0625

  let w_clamp = 4.0

  type info = {
    mutable cnt : int;
    mutable last : int;
    mutable level : int;  (* from Hint events; 0 = unhinted *)
  }

  type t = {
    cap : int;
    resident : (Block.t, info) Hashtbl.t;
    ghost : Islab.t;
    ghost_x : (Block.t, float array) Hashtbl.t;  (* eviction-time features *)
    w : float array;
    mutable updates : int;
  }

  let name = "PERCEPTRON-SCAN"

  let summary = "online perceptron over recency/frequency/level/file features"

  let adaptive = true

  let needs_future = false

  let create ~capacity ~future:_ =
    {
      cap = Stdlib.max 1 capacity;
      resident = Hashtbl.create (4 * capacity);
      ghost = Islab.create capacity;
      ghost_x = Hashtbl.create (4 * capacity);
      w = Array.make n_features 0.0;
      updates = 0;
    }

  let features t ~pos block i =
    let age = float_of_int (pos - i.last) /. float_of_int t.cap in
    let freq = Stdlib.min 1.0 (log (1.0 +. float_of_int i.cnt) /. log 256.0) in
    let level = float_of_int i.level /. 8.0 in
    let file_hash =
      float_of_int (Block.file block * 2654435761 land 255) /. 255.0
    in
    [| 1.0; age; freq; level; file_hash |]

  let score t x =
    let s = ref 0.0 in
    for k = 0 to n_features - 1 do
      s := !s +. (t.w.(k) *. x.(k))
    done;
    !s

  let clamp v =
    if v > w_clamp then w_clamp else if v < -.w_clamp then -.w_clamp else v

  let learn t x ~sign =
    for k = 0 to n_features - 1 do
      t.w.(k) <- clamp (t.w.(k) +. (sign *. lr *. x.(k)))
    done;
    t.updates <- t.updates + 1

  let forget_ghost t block =
    Islab.remove t.ghost block;
    Hashtbl.remove t.ghost_x block

  let on_event t = function
    | Reference { pos; block } ->
      (match Hashtbl.find_opt t.resident block with
      | Some i ->
        i.cnt <- i.cnt + 1;
        i.last <- pos
      | None -> failwith "PERCEPTRON: reference to non-resident block")
    | Admit { pos; block } ->
      (match Hashtbl.find_opt t.ghost_x block with
      | Some x ->
        (* Mistake: the stream wanted this block back. Blocks that look
           like it should score higher (be kept). *)
        learn t x ~sign:1.0;
        forget_ghost t block
      | None -> ());
      Hashtbl.replace t.resident block { cnt = 1; last = pos; level = 0 }
    | Evict { block } ->
      (match Hashtbl.find_opt t.resident block with
      | Some i ->
        (* Remember the eviction-time features; score at [last] so the
           stored vector does not depend on when the kernel applied the
           decision. *)
        let x = features t ~pos:i.last block i in
        Islab.push_front t.ghost block;
        Hashtbl.replace t.ghost_x block x;
        while Islab.length t.ghost > t.cap do
          let b = Islab.back t.ghost in
          (* Expired un-referenced: the eviction was right. *)
          (match Hashtbl.find_opt t.ghost_x b with
          | Some gx -> learn t gx ~sign:(-1.0)
          | None -> ());
          forget_ghost t b
        done
      | None -> ());
      Hashtbl.remove t.resident block
    | Invalidate { block } -> Hashtbl.remove t.resident block
    | Hint { block; level } ->
      (match Hashtbl.find_opt t.resident block with
      | Some i -> i.level <- level
      | None -> ())

  (* Lowest dot-product score loses; explicit minimum with a
     [Block.compare] tie-break keeps the scan order-independent. *)
  let victim t ~pos ~missing:_ =
    let best = ref None in
    Hashtbl.iter
      (fun block i ->
        let value = score t (features t ~pos block i) in
        match !best with
        | None -> best := Some (value, block)
        | Some (bv, bb) ->
          if value < bv || (value = bv && Block.compare block bb < 0) then
            best := Some (value, block))
      t.resident;
    match !best with
    | Some (_, block) -> block
    | None -> failwith "PERCEPTRON: empty"

  let stats t =
    List.concat
      [
        Array.to_list (Array.mapi (fun k v -> (Printf.sprintf "w%d" k, v)) t.w);
        [
          ("updates", float_of_int t.updates);
          ("ghost", float_of_int (Islab.length t.ghost));
          ("resident", float_of_int (Hashtbl.length t.resident));
        ];
      ]
end

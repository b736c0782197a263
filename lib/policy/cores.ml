(* The eleven replacement cores, each a {!Policy_core.CORE} state
   machine. The eight stock policies keep the exact victim behaviour of
   their former record-based incarnations (pinned by the record twins
   that `bench check` replays against them, and by the behaviour
   suites), re-expressed over events. The queue-based cores (FIFO,
   CLOCK, 2Q) formerly popped their victim inside the choice; here the
   choice is a peek and the removal happens at the {!Policy_core.Evict}
   event, with stamped queue entries skipped lazily — for the offline
   replay this is the identical sequence of operations, and it
   additionally tolerates a live kernel evicting a block other than the
   one named (overrule, invalidation). *)

module Block = Acfc_core.Block
module Ilist = Acfc_core.Ilist
module Itbl = Acfc_core.Itbl
open Policy_core

(* FIFO-ordered queue of blocks that survives out-of-order removals: a
   stdlib [Queue] of stamped entries plus a block -> live-stamp table.
   Removal just drops the table entry; stale queue entries are skipped
   when the front is inspected. The old destructive pop-at-choice
   behaviour is recovered by [drop_front] at eviction time. *)
module Squeue = struct
  type t = {
    q : (int * Block.t) Queue.t;
    live : (Block.t, int) Hashtbl.t;
    mutable stamp : int;
  }

  let create () = { q = Queue.create (); live = Hashtbl.create 1024; stamp = 0 }

  let length t = Hashtbl.length t.live

  let push t block =
    t.stamp <- t.stamp + 1;
    Hashtbl.replace t.live block t.stamp;
    Queue.push (t.stamp, block) t.q

  (* Discard stale entries so the physical front is a live member. *)
  let rec settle t =
    match Queue.peek_opt t.q with
    | None -> ()
    | Some (stamp, block) ->
      (match Hashtbl.find_opt t.live block with
      | Some live when live = stamp -> ()
      | Some _ | None ->
        ignore (Queue.pop t.q);
        settle t)

  let front t =
    settle t;
    match Queue.peek_opt t.q with
    | Some (_, block) -> block
    | None -> failwith "Squeue: empty"

  (* Remove [block]; additionally pop it when it is the physical front,
     matching the destructive choice of the pre-core queue policies. *)
  let drop t block =
    settle t;
    (match Queue.peek_opt t.q with
    | Some (stamp, b)
      when Block.equal b block
           && (match Hashtbl.find_opt t.live block with
              | Some live -> live = stamp
              | None -> false) ->
      ignore (Queue.pop t.q)
    | Some _ | None -> ());
    Hashtbl.remove t.live block

  (* Rotate the live front entry to the tail (CLOCK second chance). *)
  let rotate t =
    settle t;
    let stamp, block = Queue.pop t.q in
    Queue.push (stamp, block) t.q;
    block
end

(* Shared recency-list state for LRU and MRU. *)
module Recency = struct
  type t = Islab.t

  let adaptive = false

  let needs_future = false

  let create ~capacity ~future:_ = Islab.create capacity

  let on_event t = function
    | Reference { block; _ } -> Islab.move_front t block
    | Admit { block; _ } -> Islab.push_front t block
    | Evict { block } | Invalidate { block } -> Islab.remove t block
    | Hint _ -> ()

  let end_victim t ~front =
    if Islab.is_empty t then failwith "Recency: empty list"
    else if front then Islab.front t
    else Islab.back t

  let stats t = [ ("resident", float_of_int (Islab.length t)) ]
end

module Lru = struct
  include Recency

  let name = "LRU"

  let summary = "evict the least recently used block"

  let victim t ~pos:_ ~missing:_ = end_victim t ~front:false
end

module Mru = struct
  include Recency

  let name = "MRU"

  let summary = "evict the most recently used block (sequential scans)"

  let victim t ~pos:_ ~missing:_ = end_victim t ~front:true
end

module Fifo = struct
  type t = Squeue.t

  let name = "FIFO"

  let summary = "evict in admission order; references do not rejuvenate"

  let adaptive = false

  let needs_future = false

  let create ~capacity:_ ~future:_ = Squeue.create ()

  let on_event t = function
    | Reference _ | Hint _ -> ()
    | Admit { block; _ } -> Squeue.push t block
    | Evict { block } | Invalidate { block } -> Squeue.drop t block

  let victim t ~pos:_ ~missing:_ = Squeue.front t

  let stats t = [ ("resident", float_of_int (Squeue.length t)) ]
end

module Clock = struct
  type t = { ring : Squeue.t; referenced : (Block.t, unit) Hashtbl.t }

  let name = "CLOCK"

  let summary = "second-chance FIFO with per-block reference bits"

  let adaptive = false

  let needs_future = false

  let create ~capacity:_ ~future:_ =
    { ring = Squeue.create (); referenced = Hashtbl.create 1024 }

  let on_event t = function
    | Reference { block; _ } -> Hashtbl.replace t.referenced block ()
    | Admit { block; _ } -> Squeue.push t.ring block
    | Evict { block } | Invalidate { block } ->
      Squeue.drop t.ring block;
      Hashtbl.remove t.referenced block
    | Hint _ -> ()

  let rec victim t ~pos ~missing =
    let block = Squeue.front t.ring in
    if Hashtbl.mem t.referenced block then begin
      (* Second chance: clear the bit and move the hand on. *)
      Hashtbl.remove t.referenced block;
      ignore (Squeue.rotate t.ring);
      victim t ~pos ~missing
    end
    else block

  let stats t = [ ("resident", float_of_int (Squeue.length t.ring)) ]
end

(* Victim orderings for the indexed LRU-2 and OPT below. Both keys are
   total orders: last-reference positions are unique across resident
   blocks (each stream position references exactly one block), and the
   OPT key carries the block identity for the never-used-again tier. *)
module Pair_map = Map.Make (struct
  type t = int * int

  let compare (a1, b1) (a2, b2) =
    match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c
end)

module Lru_2 = struct
  (* history: positions of the last two references, most recent first;
     victims: the same entries keyed by (penultimate, last) so the
     eviction choice — oldest penultimate reference, ties broken by the
     older last reference — is the map's minimum binding instead of a
     full-table scan per miss. *)
  type t = {
    history : (Block.t, int * int) Hashtbl.t;
    mutable victims : Block.t Pair_map.t;
  }

  let name = "LRU-2"

  let summary = "evict the oldest penultimate reference (O'Neil LRU-K, K=2)"

  let adaptive = false

  let needs_future = false

  let never = -1

  let create ~capacity:_ ~future:_ =
    { history = Hashtbl.create 1024; victims = Pair_map.empty }

  let record t ~pos block =
    let last, penultimate =
      Option.value (Hashtbl.find_opt t.history block) ~default:(never, never)
    in
    if last <> never then t.victims <- Pair_map.remove (penultimate, last) t.victims;
    Hashtbl.replace t.history block (pos, last);
    t.victims <- Pair_map.add (last, pos) block t.victims

  let forget t block =
    match Hashtbl.find_opt t.history block with
    | Some (last, penultimate) ->
      t.victims <- Pair_map.remove (penultimate, last) t.victims;
      Hashtbl.remove t.history block
    | None -> ()

  let on_event t = function
    | Reference { pos; block } | Admit { pos; block } -> record t ~pos block
    | Evict { block } | Invalidate { block } -> forget t block
    | Hint _ -> ()

  let victim t ~pos:_ ~missing:_ =
    match Pair_map.min_binding_opt t.victims with
    | Some (_, block) -> block
    | None -> failwith "LRU-2: empty"

  let stats t = [ ("resident", float_of_int (Hashtbl.length t.history)) ]
end

module Rand = struct
  (* Swap-with-last dynamic array: uniform choice and eviction are both
     O(1). The RNG is seeded from the capacity, so the draw sequence —
     and therefore the victim sequence — is a pure function of
     (capacity, demand stream). *)
  type t = {
    rng : Acfc_sim.Rng.t;
    mutable arr : Block.t array;
    mutable n : int;
    index : (Block.t, int) Hashtbl.t;  (* block -> slot in [arr] *)
  }

  let name = "RAND"

  let summary = "evict a uniformly random resident block"

  let adaptive = false

  let needs_future = false

  let create ~capacity ~future:_ =
    {
      rng = Acfc_sim.Rng.create (capacity + 7);
      arr = [||];
      n = 0;
      index = Hashtbl.create 1024;
    }

  let inserted t block =
    if t.n = Array.length t.arr then begin
      let cap = Stdlib.max 16 (2 * t.n) in
      let arr = Array.make cap block in
      Array.blit t.arr 0 arr 0 t.n;
      t.arr <- arr
    end;
    t.arr.(t.n) <- block;
    Hashtbl.replace t.index block t.n;
    t.n <- t.n + 1

  let removed t block =
    match Hashtbl.find_opt t.index block with
    | None -> ()
    | Some i ->
      let last = t.n - 1 in
      let moved = t.arr.(last) in
      t.arr.(i) <- moved;
      Hashtbl.replace t.index moved i;
      Hashtbl.remove t.index block;
      t.n <- last

  let on_event t = function
    | Reference _ | Hint _ -> ()
    | Admit { block; _ } -> inserted t block
    | Evict { block } | Invalidate { block } -> removed t block

  let victim t ~pos:_ ~missing:_ =
    if t.n = 0 then failwith "RAND: empty";
    t.arr.(Acfc_sim.Rng.int t.rng t.n)

  let stats t = [ ("resident", float_of_int t.n) ]
end

module Opt_victims = Set.Make (struct
  type t = int * Block.t  (* (next use, block) *)

  let compare (u1, b1) (u2, b2) =
    match Int.compare u1 u2 with 0 -> Block.compare b1 b2 | c -> c
end)

module Opt = struct
  type t = {
    (* For each block, the stream positions where it is referenced, in
       order, with the already-consumed prefix removed. *)
    future : (Block.t, int list ref) Hashtbl.t;
    resident : (Block.t, int) Hashtbl.t;  (* block -> its key in [victims] *)
    (* Resident blocks keyed by next use, so the farthest-future victim
       is the maximum element instead of a full-table scan per miss.
       Never-used-again blocks sit at max_int, tied; the block identity
       in the key makes the choice deterministic, and any choice among
       them yields the same miss count (none is referenced again). *)
    mutable victims : Opt_victims.t;
  }

  let name = "OPT"

  let summary = "clairvoyant MIN: evict the farthest future use (offline only)"

  let adaptive = false

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
    { future; resident = Hashtbl.create 1024; victims = Opt_victims.empty }

  let consume t ~pos block =
    let l = Hashtbl.find t.future block in
    match !l with
    | p :: rest when p = pos -> l := rest
    | _ -> failwith "OPT: stream position mismatch"

  let next_use t block =
    match !(Hashtbl.find t.future block) with [] -> max_int | p :: _ -> p

  let reindex t block use =
    Hashtbl.replace t.resident block use;
    t.victims <- Opt_victims.add (use, block) t.victims

  let drop t block =
    match Hashtbl.find_opt t.resident block with
    | Some use ->
      t.victims <- Opt_victims.remove (use, block) t.victims;
      Hashtbl.remove t.resident block
    | None -> ()

  let on_event t = function
    | Reference { pos; block } ->
      (* The stored key is the block's next use, which is this
         reference: drop it, consume the position, and re-key at the
         new next use. *)
      (match Hashtbl.find_opt t.resident block with
      | Some use -> t.victims <- Opt_victims.remove (use, block) t.victims
      | None -> failwith "OPT: hit on non-resident block");
      consume t ~pos block;
      reindex t block (next_use t block)
    | Admit { pos; block } ->
      consume t ~pos block;
      reindex t block (next_use t block)
    | Evict { block } | Invalidate { block } -> drop t block
    | Hint _ -> ()

  let victim t ~pos:_ ~missing:_ =
    match Opt_victims.max_elt_opt t.victims with
    | Some (_, block) -> block
    | None -> failwith "OPT: empty"

  let stats t = [ ("resident", float_of_int (Hashtbl.length t.resident)) ]
end

module Two_q = struct
  (* Simplified full 2Q (Johnson & Shasha, VLDB '94 — contemporaneous
     with the paper): new pages enter the FIFO probation queue A1in;
     pages re-referenced after leaving it (tracked by the ghost queue
     A1out) are promoted to the protected LRU queue Am. *)
  type queue = A1in | Am

  type t = {
    kin : int;  (* A1in capacity *)
    kout : int;  (* A1out ghost capacity *)
    a1in : Squeue.t;
    am : Islab.t;
    where : (Block.t, queue) Hashtbl.t;  (* resident pages only *)
    a1out : Block.t Queue.t;  (* ghosts: identities only *)
    ghost : (Block.t, unit) Hashtbl.t;
  }

  let name = "2Q"

  let summary = "probation FIFO + protected LRU with a ghost promotion queue"

  let adaptive = false

  let needs_future = false

  let create ~capacity ~future:_ =
    {
      kin = Stdlib.max 1 (capacity / 4);
      kout = Stdlib.max 1 (capacity / 2);
      a1in = Squeue.create ();
      am = Islab.create capacity;
      where = Hashtbl.create 1024;
      a1out = Queue.create ();
      ghost = Hashtbl.create 1024;
    }

  let remember_ghost t block =
    Queue.push block t.a1out;
    Hashtbl.replace t.ghost block ();
    while Queue.length t.a1out > t.kout do
      Hashtbl.remove t.ghost (Queue.pop t.a1out)
    done

  let on_event t = function
    | Reference { block; _ } ->
      (match Hashtbl.find_opt t.where block with
      | Some Am -> Islab.move_front t.am block
      | Some A1in -> ()  (* classic 2Q: probation hits do not promote *)
      | None -> assert false)
    | Admit { block; _ } ->
      if Hashtbl.mem t.ghost block then begin
        (* Seen recently: promote straight to the protected queue. *)
        Hashtbl.replace t.where block Am;
        Islab.push_front t.am block
      end
      else begin
        Hashtbl.replace t.where block A1in;
        Squeue.push t.a1in block
      end
    | Evict { block } ->
      (match Hashtbl.find_opt t.where block with
      | Some Am -> Islab.remove t.am block
      | Some A1in ->
        (* A replaced probation page is remembered so a prompt
           re-reference proves it deserves the protected queue. *)
        Squeue.drop t.a1in block;
        remember_ghost t block
      | None -> ());
      Hashtbl.remove t.where block
    | Invalidate { block } ->
      (* Invalidation is not a replacement decision: no ghost entry. *)
      (match Hashtbl.find_opt t.where block with
      | Some Am -> Islab.remove t.am block
      | Some A1in -> Squeue.drop t.a1in block
      | None -> ());
      Hashtbl.remove t.where block
    | Hint _ -> ()

  let victim t ~pos:_ ~missing:_ =
    if Squeue.length t.a1in > t.kin || Islab.is_empty t.am then Squeue.front t.a1in
    else Islab.back t.am

  let stats t =
    [
      ("a1in", float_of_int (Squeue.length t.a1in));
      ("am", float_of_int (Islab.length t.am));
      ("ghost", float_of_int (Hashtbl.length t.ghost));
    ]
end

(* {2 Adaptive policies} *)

module Arc = struct
  (* Adaptive Replacement Cache (Megiddo & Modha, FAST '03): recency
     list T1 and frequency list T2 share the capacity; ghost lists B1/B2
     remember recent evictions from each, and a hit in a ghost list
     moves the adaptation target [p] (the size T1 "deserves") toward
     that list's side. Ghost lists are bounded by the cache capacity —
     the qcheck suite drives random streams and asserts the bound after
     every event. *)
  type t = {
    cap : int;
    t1 : Islab.t;  (* seen once recently, MRU at front *)
    t2 : Islab.t;  (* seen at least twice, MRU at front *)
    b1 : Islab.t;  (* ghosts of T1 evictions *)
    b2 : Islab.t;  (* ghosts of T2 evictions *)
    mutable p : int;  (* target size of T1, 0..cap *)
    mutable adapted_for : Block.t option;
        (* missing block [victim] already adapted [p] for, so the
           paired [Admit] does not adapt twice *)
  }

  let name = "ARC"

  let summary = "adaptive recency/frequency split with ghost-directed target"

  let adaptive = true

  let needs_future = false

  let create ~capacity ~future:_ =
    {
      cap = Stdlib.max 1 capacity;
      t1 = Islab.create capacity;
      t2 = Islab.create capacity;
      b1 = Islab.create capacity;
      b2 = Islab.create capacity;
      p = 0;
      adapted_for = None;
    }

  let trim ghost cap =
    while Islab.length ghost > cap do
      Islab.remove ghost (Islab.back ghost)
    done

  (* Move [p] toward the ghost list [block] hit, by the classic ratio
     step (at least 1). No-op for blocks in neither ghost list. *)
  let adapt t block =
    if Islab.mem t.b1 block then begin
      let d =
        Stdlib.max 1
          (if Islab.length t.b1 = 0 then 1 else Islab.length t.b2 / Islab.length t.b1)
      in
      t.p <- Stdlib.min t.cap (t.p + d)
    end
    else if Islab.mem t.b2 block then begin
      let d =
        Stdlib.max 1
          (if Islab.length t.b2 = 0 then 1 else Islab.length t.b1 / Islab.length t.b2)
      in
      t.p <- Stdlib.max 0 (t.p - d)
    end

  let on_event t = function
    | Reference { block; _ } ->
      if Islab.mem t.t1 block then begin
        (* Second reference: promote to the frequency side. *)
        Islab.remove t.t1 block;
        Islab.push_front t.t2 block
      end
      else Islab.move_front t.t2 block
    | Admit { block; _ } ->
      (match t.adapted_for with
      | Some b when Block.equal b block -> ()  (* [victim] already adapted *)
      | Some _ | None -> adapt t block);
      t.adapted_for <- None;
      if Islab.mem t.b1 block || Islab.mem t.b2 block then begin
        (* A ghost hit re-enters directly on the frequency side. *)
        Islab.remove t.b1 block;
        Islab.remove t.b2 block;
        Islab.push_front t.t2 block
      end
      else Islab.push_front t.t1 block
    | Evict { block } ->
      if Islab.mem t.t1 block then begin
        Islab.remove t.t1 block;
        Islab.push_front t.b1 block;
        trim t.b1 t.cap
      end
      else if Islab.mem t.t2 block then begin
        Islab.remove t.t2 block;
        Islab.push_front t.b2 block;
        trim t.b2 t.cap
      end
    | Invalidate { block } ->
      (* Dead contents teach nothing: drop without a ghost entry. *)
      Islab.remove t.t1 block;
      Islab.remove t.t2 block
    | Hint _ -> ()

  (* Classic REPLACE: shrink T1 when it exceeds its target (or exactly
     meets it and the missing block is a B2 ghost, about to grow T2). *)
  let victim t ~pos:_ ~missing =
    adapt t missing;
    t.adapted_for <- Some missing;
    let l1 = Islab.length t.t1 in
    if l1 > 0 && (l1 > t.p || (Islab.mem t.b2 missing && l1 = t.p)) then
      Islab.back t.t1
    else if not (Islab.is_empty t.t2) then Islab.back t.t2
    else Islab.back t.t1

  let stats t =
    [
      ("p", float_of_int t.p);
      ("t1", float_of_int (Islab.length t.t1));
      ("t2", float_of_int (Islab.length t.t2));
      ("b1", float_of_int (Islab.length t.b1));
      ("b2", float_of_int (Islab.length t.b2));
    ]
end

(* Bounded ghost list for the learned cores: blocks recently evicted,
   most recent at the front, keyed by {!Block.pack}, each with two int
   payload columns ([a], [b]). [cap + 1] slots are preallocated: callers
   push, then trim back to [cap], so a push always finds a free slot and
   nothing is allocated after [create]. *)
module Ghost = struct
  type t = {
    cap : int;
    store : Ilist.store;
    list : Ilist.t;
    index : Itbl.t;  (* Block.pack -> slot *)
    key : int array;
    a : int array;
    b : int array;
    free : int array;  (* stack of free slots *)
    mutable nfree : int;
  }

  let create cap =
    let n = cap + 1 in
    {
      cap;
      store = Ilist.make_store n;
      list = Ilist.create ();
      index = Itbl.create n;
      key = Array.make n 0;
      a = Array.make n 0;
      b = Array.make n 0;
      free = Array.init n (fun i -> n - 1 - i);
      nfree = n;
    }

  let length t = Ilist.length t.list

  let over t = Ilist.length t.list > t.cap

  (* Slot of [key], or -1. *)
  let find t key = Itbl.find t.index key

  (* The least recently pushed entry; the list must be non-empty. *)
  let oldest t = Ilist.back t.list

  let push t key ~a ~b =
    t.nfree <- t.nfree - 1;
    let s = t.free.(t.nfree) in
    t.key.(s) <- key;
    t.a.(s) <- a;
    t.b.(s) <- b;
    Itbl.set t.index key s;
    Ilist.push_front t.store t.list s

  let remove t s =
    Ilist.remove t.store t.list s;
    Itbl.remove t.index t.key.(s);
    t.free.(t.nfree) <- s;
    t.nfree <- t.nfree + 1
end

(* Widen an int column to [n] cells, preserving its contents. *)
let widen col n =
  let c = Array.make n 0 in
  Array.blit col 0 c 0 (Array.length col);
  c

module Awrp = struct
  (* Adaptive Weight Ranking Policy (arXiv:1107.4851): every resident
     block is ranked by a weighted sum of a frequency term and a recency
     term; the weight itself adapts online. A ghost list remembers
     recently evicted blocks with their reference counts — when an
     evicted block returns, the mix is nudged toward the term that would
     have kept it (frequency if it was referenced repeatedly, recency
     otherwise). All arithmetic is RNG-free, so a fixed stream replays
     bit-identically.

     Resident blocks live in free-listed slots ([cnt]/[last] columns)
     threaded on one of [buckets] recency lists, one per saturated
     frequency [min cnt 16], newest at the front. Positions strictly
     increase (Policy_core's contract), so each bucket is ordered by
     [last]; the frequency term is constant within a bucket and the
     rank is monotone in [last] under IEEE rounding, so each bucket's
     back holds its minimum. A victim query evaluates the bucket backs
     and walks only the equal-valued run at the back of each bucket for
     the [Block.compare] tie-break: O(buckets) per miss, no allocation,
     and exactly the victim of a full scan (Reference.Awrp_scan, checked
     in lockstep by test/test_policy_core.ml). *)
  let buckets = 16

  type t = {
    index : Itbl.t;  (* Block.pack -> slot *)
    store : Ilist.store;
    bucket : Ilist.t array;  (* [min cnt buckets - 1], newest first *)
    mutable blocks : Block.t array;  (* slot -> block *)
    mutable key : int array;  (* slot -> Block.pack *)
    mutable cnt : int array;
    mutable last : int array;
    mutable free : int array;  (* stack of free slots *)
    mutable nfree : int;
    ghost : Ghost.t;  (* a = reference count at eviction *)
    cap : int;
    mutable w : float;  (* frequency weight, 0.05 .. 0.95 *)
    mutable nudges : int;
  }

  let name = "AWRP"

  let summary = "adaptive weighted frequency+recency ranking (arXiv:1107.4851)"

  let adaptive = true

  let needs_future = false

  let step = 0.05

  let w_min = 0.05

  let w_max = 0.95

  let dummy = Block.make ~file:0 ~index:0

  let create ~capacity ~future:_ =
    let cap = Stdlib.max 1 capacity in
    let n = cap + 1 in
    {
      index = Itbl.create n;
      store = Ilist.make_store n;
      bucket = Array.init buckets (fun _ -> Ilist.create ());
      blocks = Array.make n dummy;
      key = Array.make n 0;
      cnt = Array.make n 0;
      last = Array.make n 0;
      free = Array.init n (fun i -> n - 1 - i);
      nfree = n;
      ghost = Ghost.create cap;
      cap;
      w = 0.5;
      nudges = 0;
    }

  let bucket_of cnt = if cnt < buckets then cnt - 1 else buckets - 1

  let grow t =
    let old = Array.length t.key in
    let n = 2 * old in
    Ilist.grow_store t.store n;
    let blocks = Array.make n dummy in
    Array.blit t.blocks 0 blocks 0 old;
    t.blocks <- blocks;
    t.key <- widen t.key n;
    t.cnt <- widen t.cnt n;
    t.last <- widen t.last n;
    t.free <- widen t.free n;
    for i = 0 to old - 1 do
      t.free.(i) <- n - 1 - i
    done;
    t.nfree <- old

  (* Unlink [s] and put it at the front of the bucket for [cnt], as the
     newest block referenced at [pos]. *)
  let place t s ~cnt ~pos =
    Ilist.remove t.store t.bucket.(bucket_of t.cnt.(s)) s;
    t.cnt.(s) <- cnt;
    t.last.(s) <- pos;
    Ilist.push_front t.store t.bucket.(bucket_of cnt) s

  let admit t ~pos block key =
    let s = Itbl.find t.index key in
    if s >= 0 then place t s ~cnt:1 ~pos
    else begin
      if t.nfree = 0 then grow t;
      t.nfree <- t.nfree - 1;
      let s = t.free.(t.nfree) in
      t.blocks.(s) <- block;
      t.key.(s) <- key;
      t.cnt.(s) <- 1;
      t.last.(s) <- pos;
      Itbl.set t.index key s;
      Ilist.push_front t.store t.bucket.(0) s
    end

  let release t s =
    Ilist.remove t.store t.bucket.(bucket_of t.cnt.(s)) s;
    Itbl.remove t.index t.key.(s);
    t.blocks.(s) <- dummy;
    t.free.(t.nfree) <- s;
    t.nfree <- t.nfree + 1

  let on_event t = function
    | Reference { pos; block } ->
      let s = Itbl.find t.index (Block.pack block) in
      if s < 0 then failwith "AWRP: reference to non-resident block";
      place t s ~cnt:(t.cnt.(s) + 1) ~pos
    | Admit { pos; block } ->
      let key = Block.pack block in
      let g = Ghost.find t.ghost key in
      if g >= 0 then begin
        (* The stream disagreed with an eviction: favour the term that
           would have retained this block. *)
        if t.ghost.a.(g) >= 2 then t.w <- Stdlib.min w_max (t.w +. step)
        else t.w <- Stdlib.max w_min (t.w -. step);
        t.nudges <- t.nudges + 1;
        Ghost.remove t.ghost g
      end;
      admit t ~pos block key
    | Evict { block } ->
      let key = Block.pack block in
      let s = Itbl.find t.index key in
      if s >= 0 then begin
        Ghost.push t.ghost key ~a:t.cnt.(s) ~b:0;
        while Ghost.over t.ghost do
          Ghost.remove t.ghost (Ghost.oldest t.ghost)
        done;
        release t s
      end
    | Invalidate { block } ->
      let s = Itbl.find t.index (Block.pack block) in
      if s >= 0 then release t s
    | Hint _ -> ()

  (* Rank = w * saturating-frequency + (1-w) * recency; the victim is
     the minimum, ties broken by the smaller block. *)
  let[@inline] rank t ~pos s =
    let f = float_of_int t.cnt.(s) /. 16.0 in
    let freq = if 1.0 <= f then 1.0 else f in
    let recency = 1.0 /. float_of_int (1 + pos - t.last.(s)) in
    (t.w *. freq) +. ((1.0 -. t.w) *. recency)

  let victim t ~pos ~missing:_ =
    let best = ref 0.0 and found = ref false in
    for b = 0 to buckets - 1 do
      let s = Ilist.back t.bucket.(b) in
      if s <> Ilist.nil then begin
        let v = rank t ~pos s in
        if (not !found) || v < !best then begin
          best := v;
          found := true
        end
      end
    done;
    if not !found then failwith "AWRP: empty";
    let pick = ref Ilist.nil in
    for b = 0 to buckets - 1 do
      let s = ref (Ilist.back t.bucket.(b)) in
      while !s <> Ilist.nil && rank t ~pos !s = !best do
        if !pick = Ilist.nil || t.key.(!s) < t.key.(!pick) then pick := !s;
        s := Ilist.next_toward_front t.store !s
      done
    done;
    t.blocks.(!pick)

  let stats t =
    [
      ("w", t.w);
      ("nudges", float_of_int t.nudges);
      ("ghost", float_of_int (Ghost.length t.ghost));
      ("resident", float_of_int (Itbl.length t.index));
    ]
end

module Perceptron = struct
  (* LearnedCache-style perceptron eviction: each resident block is
     scored by a dot product of learned weights with a feature vector
     (bias, recency age, saturating log reference count, priority-level
     hint, file-id hash); the lowest score is evicted. Learning is
     ghost-driven: evicting a block that promptly returns was a mistake
     (weights move toward its features); a ghost expiring un-referenced
     confirms the eviction (weights move away). Weights are clamped, so
     they stay finite on any stream — asserted by qcheck.

     The weights change at almost every eviction, so the victim query is
     a linear scan — but a dense one: resident blocks sit in a
     swap-remove slot array ([cnt]/[last]/[level] columns), the features
     are computed inline from the columns, and nothing is allocated. A
     ghost keeps the eviction-time [cnt] and [level]: eviction-time
     features are taken at the block's own last reference (age 0), so
     the two ints determine the feature vector exactly. *)
  let n_features = 5

  let lr = 0.0625

  let w_clamp = 4.0

  type t = {
    cap : int;
    index : Itbl.t;  (* Block.pack -> slot *)
    mutable n : int;  (* slots [0, n) are resident *)
    mutable blocks : Block.t array;
    mutable key : int array;  (* slot -> Block.pack *)
    mutable cnt : int array;
    mutable last : int array;
    mutable level : int array;  (* from Hint events; 0 = unhinted *)
    ghost : Ghost.t;  (* a = cnt, b = level at eviction *)
    w : float array;
    mutable updates : int;
  }

  let name = "PERCEPTRON"

  let summary = "online perceptron over recency/frequency/level/file features"

  let adaptive = true

  let needs_future = false

  let dummy = Block.make ~file:0 ~index:0

  let create ~capacity ~future:_ =
    let cap = Stdlib.max 1 capacity in
    let n = cap + 1 in
    {
      cap;
      index = Itbl.create n;
      n = 0;
      blocks = Array.make n dummy;
      key = Array.make n 0;
      cnt = Array.make n 0;
      last = Array.make n 0;
      level = Array.make n 0;
      ghost = Ghost.create cap;
      w = Array.make n_features 0.0;
      updates = 0;
    }

  (* The saturating log-count feature, tabulated: it is 1.0 from a count
     of 255 on, so entry 256 stands for every larger count. *)
  let freq_table =
    Array.init 257 (fun c ->
        Stdlib.min 1.0 (log (1.0 +. float_of_int c) /. log 256.0))

  let[@inline] freq cnt = freq_table.(if cnt < 256 then cnt else 256)

  (* [level / 8.0]; scaling by a power of two rounds the same real
     value, so the product is bit-identical to the quotient. *)
  let[@inline] level_feature level = float_of_int level *. 0.125

  (* The file-id hash feature takes 256 values, so it is tabulated with
     the original expression too. *)
  let file_hash_table = Array.init 256 (fun h -> float_of_int h /. 255.0)

  let[@inline] file_hash key = file_hash_table.((key lsr 32) * 2654435761 land 255)

  let[@inline] clamp v =
    if v > w_clamp then w_clamp else if v < -.w_clamp then -.w_clamp else v

  (* Move the weights along the eviction-time features of a ghost:
     (1, age 0, freq, level, file hash). *)
  let learn t g ~sign =
    let ghost = t.ghost and w = t.w in
    let x2 = freq ghost.a.(g)
    and x3 = level_feature ghost.b.(g)
    and x4 = file_hash ghost.key.(g) in
    w.(0) <- clamp (w.(0) +. (sign *. lr *. 1.0));
    w.(1) <- clamp (w.(1) +. (sign *. lr *. 0.0));
    w.(2) <- clamp (w.(2) +. (sign *. lr *. x2));
    w.(3) <- clamp (w.(3) +. (sign *. lr *. x3));
    w.(4) <- clamp (w.(4) +. (sign *. lr *. x4));
    t.updates <- t.updates + 1

  let grow t =
    let n = 2 * Array.length t.key in
    let blocks = Array.make n dummy in
    Array.blit t.blocks 0 blocks 0 t.n;
    t.blocks <- blocks;
    t.key <- widen t.key n;
    t.cnt <- widen t.cnt n;
    t.last <- widen t.last n;
    t.level <- widen t.level n

  (* Swap-remove: the last resident slot fills the hole. *)
  let release t s =
    Itbl.remove t.index t.key.(s);
    let l = t.n - 1 in
    if s <> l then begin
      t.blocks.(s) <- t.blocks.(l);
      t.key.(s) <- t.key.(l);
      t.cnt.(s) <- t.cnt.(l);
      t.last.(s) <- t.last.(l);
      t.level.(s) <- t.level.(l);
      Itbl.set t.index t.key.(s) s
    end;
    t.blocks.(l) <- dummy;
    t.n <- l

  let on_event t = function
    | Reference { pos; block } ->
      let s = Itbl.find t.index (Block.pack block) in
      if s < 0 then failwith "PERCEPTRON: reference to non-resident block";
      t.cnt.(s) <- t.cnt.(s) + 1;
      t.last.(s) <- pos
    | Admit { pos; block } ->
      let key = Block.pack block in
      let g = Ghost.find t.ghost key in
      if g >= 0 then begin
        (* Mistake: the stream wanted this block back. Blocks that look
           like it should score higher (be kept). *)
        learn t g ~sign:1.0;
        Ghost.remove t.ghost g
      end;
      let s = Itbl.find t.index key in
      let s =
        if s >= 0 then s
        else begin
          if t.n = Array.length t.key then grow t;
          let s = t.n in
          t.n <- s + 1;
          t.blocks.(s) <- block;
          t.key.(s) <- key;
          Itbl.set t.index key s;
          s
        end
      in
      t.cnt.(s) <- 1;
      t.last.(s) <- pos;
      t.level.(s) <- 0
    | Evict { block } ->
      let key = Block.pack block in
      let s = Itbl.find t.index key in
      if s >= 0 then begin
        Ghost.push t.ghost key ~a:t.cnt.(s) ~b:t.level.(s);
        while Ghost.over t.ghost do
          let g = Ghost.oldest t.ghost in
          (* Expired un-referenced: the eviction was right. *)
          learn t g ~sign:(-1.0);
          Ghost.remove t.ghost g
        done;
        release t s
      end
    | Invalidate { block } ->
      let s = Itbl.find t.index (Block.pack block) in
      if s >= 0 then release t s
    | Hint { block; level } ->
      let s = Itbl.find t.index (Block.pack block) in
      if s >= 0 then t.level.(s) <- level

  (* Lowest dot-product score loses, ties broken by the smaller block:
     an explicit (score, block) minimum, so the scan order is
     irrelevant. The dot product keeps the feature order of the weight
     vector, so every score is bit-identical to a per-block feature
     array's. *)
  let victim t ~pos ~missing:_ =
    if t.n = 0 then failwith "PERCEPTRON: empty";
    let w = t.w in
    let w0 = w.(0) and w1 = w.(1) and w2 = w.(2) and w3 = w.(3) and w4 = w.(4) in
    let capf = float_of_int t.cap in
    let best = ref 0.0 and pick = ref (-1) in
    for s = 0 to t.n - 1 do
      let key = t.key.(s) in
      let age = float_of_int (pos - t.last.(s)) /. capf in
      let v =
        0.0 +. (w0 *. 1.0) +. (w1 *. age)
        +. (w2 *. freq t.cnt.(s))
        +. (w3 *. level_feature t.level.(s))
        +. (w4 *. file_hash key)
      in
      if !pick < 0 || v < !best || (v = !best && key < t.key.(!pick)) then begin
        best := v;
        pick := s
      end
    done;
    t.blocks.(!pick)

  let stats t =
    List.concat
      [
        Array.to_list (Array.mapi (fun k v -> (Printf.sprintf "w%d" k, v)) t.w);
        [
          ("updates", float_of_int t.updates);
          ("ghost", float_of_int (Ghost.length t.ghost));
          ("resident", float_of_int t.n);
        ];
      ]
end

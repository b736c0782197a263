(* The eleven replacement cores, each a {!Policy_core.CORE} state
   machine. The eight stock policies keep the exact victim behaviour of
   their former record-based incarnations (pinned by the record twins
   that `bench check` replays against them, and by the behaviour
   suites), re-expressed over events. No core scans its residents for
   a victim or allocates per event at steady state: the queue-based
   cores (FIFO, CLOCK, 2Q) keep their queues as {!Islab} lists, newest
   at the front, so the choice is a peek at the back and the removal
   happens at the {!Policy_core.Evict} event — which also tolerates a
   live kernel evicting a block other than the one named (overrule,
   invalidation); LRU-2 and OPT keep their residents in one {!Iheap}
   whose top is the victim; the learned cores answer from per-bucket
   or per-class minima. *)

module Block = Acfc_core.Block
module Ilist = Acfc_core.Ilist
module Itbl = Acfc_core.Itbl
open Policy_core

(* Filler for empty [Block.t] slots. *)
let dummy = Block.make ~file:0 ~index:0

(* Widen an int column to [n] cells, preserving its contents. *)
let widen col n =
  let c = Array.make n 0 in
  Array.blit col 0 c 0 (Array.length col);
  c

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
  (* Admission order, newest at the front: the victim is the back.
     References do not move a block. *)
  type t = Islab.t

  let name = "FIFO"

  let summary = "evict in admission order; references do not rejuvenate"

  let adaptive = false

  let needs_future = false

  let create ~capacity ~future:_ = Islab.create capacity

  let on_event t = function
    | Reference _ | Hint _ -> ()
    | Admit { block; _ } -> Islab.push_front t block
    | Evict { block } | Invalidate { block } -> Islab.remove t block

  let victim t ~pos:_ ~missing:_ =
    if Islab.is_empty t then failwith "FIFO: empty";
    Islab.back t

  let stats t = [ ("resident", float_of_int (Islab.length t)) ]
end

module Clock = struct
  (* The ring in admission order, newest at the front: the hand is the
     back, and a second chance moves the hand's block to the front. *)
  type t = { ring : Islab.t; referenced : Itbl.t  (* Block.pack -> 1 *) }

  let name = "CLOCK"

  let summary = "second-chance FIFO with per-block reference bits"

  let adaptive = false

  let needs_future = false

  let create ~capacity ~future:_ =
    { ring = Islab.create capacity; referenced = Itbl.create capacity }

  let on_event t = function
    | Reference { block; _ } -> Itbl.set t.referenced (Block.pack block) 1
    | Admit { block; _ } -> Islab.push_front t.ring block
    | Evict { block } | Invalidate { block } ->
      Islab.remove t.ring block;
      Itbl.remove t.referenced (Block.pack block)
    | Hint _ -> ()

  let rec victim t ~pos ~missing =
    if Islab.is_empty t.ring then failwith "CLOCK: empty";
    let block = Islab.back t.ring in
    let key = Block.pack block in
    if Itbl.mem t.referenced key then begin
      (* Second chance: clear the bit and move the hand on. *)
      Itbl.remove t.referenced key;
      Islab.move_front t.ring block;
      victim t ~pos ~missing
    end
    else block

  let stats t = [ ("resident", float_of_int (Islab.length t.ring)) ]
end

(* Resident blocks in free-listed slots, ordered by one indexed heap:
   the state of LRU-2 and OPT, whose victim is the heap top. Both keys
   are total orders, so the top is unique. *)
module Ranked = struct
  type t = {
    index : Itbl.t;  (* Block.pack -> slot *)
    mutable blocks : Block.t array;  (* slot -> block *)
    mutable free : int array;  (* stack of free slots *)
    mutable nfree : int;
    keys : Iheap.store;
    heap : Iheap.t;
  }

  let create capacity =
    let n = Stdlib.max 16 (capacity + 1) in
    {
      index = Itbl.create n;
      blocks = Array.make n dummy;
      free = Array.init n (fun i -> n - 1 - i);
      nfree = n;
      keys = Iheap.store n;
      heap = Iheap.create n;
    }

  let length t = Iheap.length t.heap

  (* Slot of a packed block, or -1. *)
  let find t key = Itbl.find t.index key

  let grow t =
    let old = Array.length t.blocks in
    let n = 2 * old in
    let blocks = Array.make n dummy in
    Array.blit t.blocks 0 blocks 0 old;
    t.blocks <- blocks;
    Iheap.reserve t.keys n;
    t.free <- widen t.free n;
    for i = 0 to old - 1 do
      t.free.(i) <- n - 1 - i
    done;
    t.nfree <- old

  let insert t block key ~hi ~lo =
    if t.nfree = 0 then grow t;
    t.nfree <- t.nfree - 1;
    let s = t.free.(t.nfree) in
    t.blocks.(s) <- block;
    Itbl.set t.index key s;
    Iheap.add t.keys t.heap s ~hi ~lo

  let rekey t s ~hi ~lo = Iheap.rekey t.keys t.heap s ~hi ~lo

  let release t s key =
    Iheap.remove t.keys t.heap s;
    Itbl.remove t.index key;
    t.blocks.(s) <- dummy;
    t.free.(t.nfree) <- s;
    t.nfree <- t.nfree + 1

  let top t ~name =
    if Iheap.is_empty t.heap then failwith (name ^ ": empty");
    t.blocks.(Iheap.top t.heap)
end

module Lru_2 = struct
  (* Residents keyed by (penultimate, last) reference position, [never]
     for a block referenced once: the victim — oldest penultimate
     reference, ties broken by the older last reference — is the heap
     top. Last-reference positions are unique across residents (each
     stream position references one block), so the key is total. *)
  type t = Ranked.t

  let name = "LRU-2"

  let summary = "evict the oldest penultimate reference (O'Neil LRU-K, K=2)"

  let adaptive = false

  let needs_future = false

  let never = -1

  let create ~capacity ~future:_ = Ranked.create capacity

  let record t ~pos block =
    let key = Block.pack block in
    let s = Ranked.find t key in
    if s < 0 then Ranked.insert t block key ~hi:never ~lo:pos
    else Ranked.rekey t s ~hi:t.keys.lo.(s) ~lo:pos

  let on_event t = function
    | Reference { pos; block } | Admit { pos; block } -> record t ~pos block
    | Evict { block } | Invalidate { block } ->
      let key = Block.pack block in
      let s = Ranked.find t key in
      if s >= 0 then Ranked.release t s key
    | Hint _ -> ()

  let victim t ~pos:_ ~missing:_ = Ranked.top t ~name

  let stats t = [ ("resident", float_of_int (Ranked.length t)) ]
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
    index : Itbl.t;  (* Block.pack -> slot in [arr] *)
  }

  let name = "RAND"

  let summary = "evict a uniformly random resident block"

  let adaptive = false

  let needs_future = false

  let create ~capacity ~future:_ =
    {
      rng = Acfc_sim.Rng.create (capacity + 7);
      arr = Array.make (Stdlib.max 16 capacity) dummy;
      n = 0;
      index = Itbl.create capacity;
    }

  let inserted t block =
    if t.n = Array.length t.arr then begin
      let arr = Array.make (2 * t.n) dummy in
      Array.blit t.arr 0 arr 0 t.n;
      t.arr <- arr
    end;
    t.arr.(t.n) <- block;
    Itbl.set t.index (Block.pack block) t.n;
    t.n <- t.n + 1

  let removed t block =
    let key = Block.pack block in
    let i = Itbl.find t.index key in
    if i >= 0 then begin
      let last = t.n - 1 in
      let moved = t.arr.(last) in
      t.arr.(i) <- moved;
      Itbl.set t.index (Block.pack moved) i;
      Itbl.remove t.index key;
      t.arr.(last) <- dummy;
      t.n <- last
    end

  let on_event t = function
    | Reference _ | Hint _ -> ()
    | Admit { block; _ } -> inserted t block
    | Evict { block } | Invalidate { block } -> removed t block

  let victim t ~pos:_ ~missing:_ =
    if t.n = 0 then failwith "RAND: empty";
    t.arr.(Acfc_sim.Rng.int t.rng t.n)

  let stats t = [ ("resident", float_of_int t.n) ]
end

module Opt = struct
  (* Residents keyed by (-next use, -Block.pack): the heap top is the
     farthest next use. Never-used-again blocks share the key max_int;
     the block identity breaks the tie deterministically, and any
     choice among them yields the same miss count (none is referenced
     again). A resident's next use is also its consumption cursor: the
     position its next event must carry. *)
  type t = {
    next : int array;  (* position -> next position of its block, or max_int *)
    cursor : Itbl.t;
        (* Block.pack -> next unconsumed position of a non-resident
           block (max_int once its stream is spent); stale while the
           block is resident, written back when it leaves *)
    resident : Ranked.t;
  }

  let name = "OPT"

  let summary = "clairvoyant MIN: evict the farthest future use (offline only)"

  let adaptive = false

  let needs_future = true

  (* One backward pass: each position's next use is the block's last
     position seen so far, and the pass ends with every block's first
     position, its initial cursor. *)
  let create ~capacity ~future:trace =
    let n = Array.length trace in
    let next = Array.make n max_int in
    let cursor = Itbl.create 1024 in
    for pos = n - 1 downto 0 do
      let key = Block.pack trace.(pos) in
      let later = Itbl.find cursor key in
      if later >= 0 then next.(pos) <- later;
      Itbl.set cursor key pos
    done;
    { next; cursor; resident = Ranked.create capacity }

  let mismatch () = failwith "OPT: stream position mismatch"

  let on_event t = function
    | Reference { pos; block } ->
      let key = Block.pack block in
      let s = Ranked.find t.resident key in
      if s < 0 then failwith "OPT: hit on non-resident block";
      if t.resident.keys.hi.(s) <> -pos then mismatch ();
      Ranked.rekey t.resident s ~hi:(-t.next.(pos)) ~lo:(-key)
    | Admit { pos; block } ->
      let key = Block.pack block in
      if Itbl.find t.cursor key <> pos then mismatch ();
      Ranked.insert t.resident block key ~hi:(-t.next.(pos)) ~lo:(-key)
    | Evict { block } | Invalidate { block } ->
      let key = Block.pack block in
      let s = Ranked.find t.resident key in
      if s >= 0 then begin
        Itbl.set t.cursor key (-t.resident.keys.hi.(s));
        Ranked.release t.resident s key
      end
    | Hint _ -> ()

  let victim t ~pos:_ ~missing:_ = Ranked.top t.resident ~name

  let stats t = [ ("resident", float_of_int (Ranked.length t.resident)) ]
end

module Two_q = struct
  (* Simplified full 2Q (Johnson & Shasha, VLDB '94 — contemporaneous
     with the paper): new pages enter the FIFO probation queue A1in;
     pages re-referenced after leaving it (tracked by the ghost queue
     A1out) are promoted to the protected LRU queue Am. All three
     queues are slab lists, newest at the front. *)
  type t = {
    kin : int;  (* A1in capacity *)
    kout : int;  (* A1out ghost capacity *)
    a1in : Islab.t;
    am : Islab.t;
    a1out : Islab.t;  (* ghosts: identities only *)
  }

  let name = "2Q"

  let summary = "probation FIFO + protected LRU with a ghost promotion queue"

  let adaptive = false

  let needs_future = false

  let create ~capacity ~future:_ =
    let kout = Stdlib.max 1 (capacity / 2) in
    {
      kin = Stdlib.max 1 (capacity / 4);
      kout;
      a1in = Islab.create capacity;
      am = Islab.create capacity;
      a1out = Islab.create (kout + 1);
    }

  (* A page enters A1in only when it is not a ghost, and leaves A1out
     only by aging, so a page pushed here is never already a ghost. *)
  let remember_ghost t block =
    Islab.push_front t.a1out block;
    while Islab.length t.a1out > t.kout do
      Islab.remove t.a1out (Islab.back t.a1out)
    done

  let on_event t = function
    | Reference { block; _ } ->
      (* Classic 2Q: probation hits do not promote. *)
      if Islab.mem t.am block then Islab.move_front t.am block
      else if not (Islab.mem t.a1in block) then
        failwith "2Q: reference to non-resident block"
    | Admit { block; _ } ->
      (* Seen recently: promote straight to the protected queue. A
         ghost entry survives promotion; it leaves A1out only by aging
         past kout. *)
      if Islab.mem t.a1out block then Islab.push_front t.am block
      else Islab.push_front t.a1in block
    | Evict { block } ->
      if Islab.mem t.am block then Islab.remove t.am block
      else if Islab.mem t.a1in block then begin
        (* A replaced probation page is remembered so a prompt
           re-reference proves it deserves the protected queue. *)
        Islab.remove t.a1in block;
        remember_ghost t block
      end
    | Invalidate { block } ->
      (* Invalidation is not a replacement decision: no ghost entry. *)
      Islab.remove t.am block;
      Islab.remove t.a1in block
    | Hint _ -> ()

  let victim t ~pos:_ ~missing:_ =
    if Islab.length t.a1in > t.kin || Islab.is_empty t.am then begin
      if Islab.is_empty t.a1in then failwith "2Q: empty";
      Islab.back t.a1in
    end
    else Islab.back t.am

  let stats t =
    [
      ("a1in", float_of_int (Islab.length t.a1in));
      ("am", float_of_int (Islab.length t.am));
      ("ghost", float_of_int (Islab.length t.a1out));
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
    mutable adapted_for : int;
        (* Block.pack of the missing block [victim] already adapted [p]
           for, so the paired [Admit] does not adapt twice; -1 for none *)
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
      adapted_for = -1;
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
      (* Unless [victim] already adapted for this block. *)
      if t.adapted_for <> Block.pack block then adapt t block;
      t.adapted_for <- -1;
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
    t.adapted_for <- Block.pack missing;
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
     hint, file-id hash); the lowest score is evicted, ties broken by
     the smaller block. Learning is ghost-driven: evicting a block that
     promptly returns was a mistake (weights move toward its features);
     a ghost expiring un-referenced confirms the eviction (weights move
     away). Weights are clamped, so they stay finite on any stream —
     asserted by qcheck. A ghost keeps the eviction-time [cnt] and
     level: eviction-time features are taken at the block's own last
     reference (age 0), so the two ints determine the feature vector.

     The recency weight [w1] therefore never moves: every update adds
     [±lr *. 0.0 = ±0.0] to [+0.0], which stays [+0.0]. A score's age
     term [w1 *. age] is then [±0.0], and adding it changes nothing:
     the partial sum before it, [0.0 +. w0], is never [-0.0], and
     [x +. ±0.0 = x] for every other [x]. So the term is dropped, and a
     score depends only on the block's class: its saturated count
     [min cnt 256], its level and the byte of its file-id hash. Every
     member of a class has the same score, bit for bit.

     Residents sit in free-listed slots ([cnt]/[lid]/[cls] columns),
     each in its class's {!Iheap} keyed by Block.pack, so a class's
     smallest block is its heap top. A victim query scores each
     populated class once and takes the (score, block) minimum over the
     class tops: exactly the victim of a full scan
     (Reference.Perceptron_scan, checked in lockstep by
     test/test_policy_core.ml), in O(classes) with no allocation.
     Classes are recycled through a spare stack and keep their heap
     arrays, so steady-state churn allocates nothing. *)
  let n_features = 5

  let lr = 0.0625

  let w_clamp = 4.0

  type t = {
    cap : int;
    index : Itbl.t;  (* Block.pack -> slot *)
    mutable blocks : Block.t array;  (* slot -> block *)
    mutable cnt : int array;
    mutable lid : int array;  (* slot -> interned level; 0 = unhinted *)
    mutable cls : int array;  (* slot -> class *)
    mutable free : int array;  (* stack of free slots *)
    mutable nfree : int;
    keys : Iheap.store;  (* hi = the slot's Block.pack *)
    classes : Itbl.t;  (* class code -> class *)
    mutable code : int array;  (* class -> code *)
    mutable members : Iheap.t array;  (* class -> its slots *)
    mutable live : int array;  (* the populated classes, densely *)
    mutable live_at : int array;  (* class -> index in [live] *)
    mutable nlive : int;
    mutable spare : int array;  (* stack of unpopulated classes *)
    mutable nspare : int;
    levels : (int, int) Hashtbl.t;  (* hint level -> lid *)
    mutable level_of : int array;  (* lid -> hint level *)
    ghost : Ghost.t;  (* a = cnt, b = level at eviction *)
    w : float array;
    mutable updates : int;
  }

  let name = "PERCEPTRON"

  let summary = "online perceptron over recency/frequency/level/file features"

  let adaptive = true

  let needs_future = false

  let create ~capacity ~future:_ =
    let cap = Stdlib.max 1 capacity in
    let n = cap + 1 and k = 16 in
    let levels = Hashtbl.create 8 in
    Hashtbl.add levels 0 0;
    {
      cap;
      index = Itbl.create n;
      blocks = Array.make n dummy;
      cnt = Array.make n 0;
      lid = Array.make n 0;
      cls = Array.make n 0;
      free = Array.init n (fun i -> n - 1 - i);
      nfree = n;
      keys = Iheap.store n;
      classes = Itbl.create k;
      code = Array.make k 0;
      members = Array.init k (fun _ -> Iheap.create 0);
      live = Array.make k 0;
      live_at = Array.make k 0;
      nlive = 0;
      spare = Array.init k (fun i -> k - 1 - i);
      nspare = k;
      levels;
      level_of = Array.make 8 0;
      ghost = Ghost.create cap;
      w = Array.make n_features 0.0;
      updates = 0;
    }

  (* The saturating log-count feature, tabulated: it is 1.0 from a count
     of 255 on, so entry 256 stands for every larger count. *)
  let freq_table =
    Array.init 257 (fun c ->
        Stdlib.min 1.0 (log (1.0 +. float_of_int c) /. log 256.0))

  let[@inline] saturate cnt = if cnt < 256 then cnt else 256

  (* [level / 8.0]; scaling by a power of two rounds the same real
     value, so the product is bit-identical to the quotient. *)
  let[@inline] level_feature level = float_of_int level *. 0.125

  (* The file-id hash feature takes 256 values, so it is tabulated with
     the original expression too. *)
  let file_hash_table = Array.init 256 (fun h -> float_of_int h /. 255.0)

  let[@inline] hash_byte key = (key lsr 32) * 2654435761 land 255

  (* A class as one non-negative int: lid, then the saturated count (9
     bits), then the hash byte (8 bits). *)
  let[@inline] class_code ~lid ~cnt ~key =
    (lid lsl 17) lor (saturate cnt lsl 8) lor hash_byte key

  let[@inline] clamp v =
    if v > w_clamp then w_clamp else if v < -.w_clamp then -.w_clamp else v

  (* Move the weights along the eviction-time features of a ghost:
     (1, age 0, freq, level, file hash). *)
  let learn t g ~sign =
    let ghost = t.ghost and w = t.w in
    let x2 = freq_table.(saturate ghost.a.(g))
    and x3 = level_feature ghost.b.(g)
    and x4 = file_hash_table.(hash_byte ghost.key.(g)) in
    w.(0) <- clamp (w.(0) +. (sign *. lr *. 1.0));
    w.(1) <- clamp (w.(1) +. (sign *. lr *. 0.0));
    w.(2) <- clamp (w.(2) +. (sign *. lr *. x2));
    w.(3) <- clamp (w.(3) +. (sign *. lr *. x3));
    w.(4) <- clamp (w.(4) +. (sign *. lr *. x4));
    t.updates <- t.updates + 1

  (* The lid of a hint level, interned on first sight. Levels are few
     (one per distinct hint value), and lids are never reused. *)
  let intern t level =
    match Hashtbl.find t.levels level with
    | lid -> lid
    | exception Not_found ->
      let lid = Hashtbl.length t.levels in
      Hashtbl.add t.levels level lid;
      if lid = Array.length t.level_of then t.level_of <- widen t.level_of (2 * lid);
      t.level_of.(lid) <- level;
      lid

  let grow_classes t =
    let old = Array.length t.code in
    let n = 2 * old in
    t.code <- widen t.code n;
    t.live <- widen t.live n;
    t.live_at <- widen t.live_at n;
    let members = t.members in
    t.members <- Array.init n (fun c -> if c < old then members.(c) else Iheap.create 0);
    t.spare <- widen t.spare n;
    for i = 0 to old - 1 do
      t.spare.(i) <- n - 1 - i
    done;
    t.nspare <- old

  (* Put slot [s], whose Block.pack is [key], into its class, opening
     the class if it has no members. *)
  let join t s key =
    let code = class_code ~lid:t.lid.(s) ~cnt:t.cnt.(s) ~key in
    let c =
      let c = Itbl.find t.classes code in
      if c >= 0 then c
      else begin
        if t.nspare = 0 then grow_classes t;
        t.nspare <- t.nspare - 1;
        let c = t.spare.(t.nspare) in
        t.code.(c) <- code;
        Itbl.set t.classes code c;
        t.live.(t.nlive) <- c;
        t.live_at.(c) <- t.nlive;
        t.nlive <- t.nlive + 1;
        c
      end
    in
    t.cls.(s) <- c;
    Iheap.add t.keys t.members.(c) s ~hi:key ~lo:0

  (* Take slot [s] out of its class, closing the class if it empties. *)
  let leave t s =
    let c = t.cls.(s) in
    let members = t.members.(c) in
    Iheap.remove t.keys members s;
    if Iheap.is_empty members then begin
      Itbl.remove t.classes t.code.(c);
      let i = t.live_at.(c) and l = t.nlive - 1 in
      let moved = t.live.(l) in
      t.live.(i) <- moved;
      t.live_at.(moved) <- i;
      t.nlive <- l;
      t.spare.(t.nspare) <- c;
      t.nspare <- t.nspare + 1
    end

  (* Move slot [s] to the class its columns now name. *)
  let reclass t s =
    let key = t.keys.hi.(s) in
    leave t s;
    join t s key

  let grow t =
    let old = Array.length t.blocks in
    let n = 2 * old in
    let blocks = Array.make n dummy in
    Array.blit t.blocks 0 blocks 0 old;
    t.blocks <- blocks;
    t.cnt <- widen t.cnt n;
    t.lid <- widen t.lid n;
    t.cls <- widen t.cls n;
    Iheap.reserve t.keys n;
    t.free <- widen t.free n;
    for i = 0 to old - 1 do
      t.free.(i) <- n - 1 - i
    done;
    t.nfree <- old

  let release t s key =
    leave t s;
    Itbl.remove t.index key;
    t.blocks.(s) <- dummy;
    t.free.(t.nfree) <- s;
    t.nfree <- t.nfree + 1

  let on_event t = function
    | Reference { block; _ } ->
      let s = Itbl.find t.index (Block.pack block) in
      if s < 0 then failwith "PERCEPTRON: reference to non-resident block";
      let c = t.cnt.(s) in
      t.cnt.(s) <- c + 1;
      (* Counts from 256 on share one class. *)
      if c < 256 then reclass t s
    | Admit { block; _ } ->
      let key = Block.pack block in
      let g = Ghost.find t.ghost key in
      if g >= 0 then begin
        (* Mistake: the stream wanted this block back. Blocks that look
           like it should score higher (be kept). *)
        learn t g ~sign:1.0;
        Ghost.remove t.ghost g
      end;
      let s = Itbl.find t.index key in
      if s >= 0 then begin
        t.cnt.(s) <- 1;
        t.lid.(s) <- 0;
        reclass t s
      end
      else begin
        if t.nfree = 0 then grow t;
        t.nfree <- t.nfree - 1;
        let s = t.free.(t.nfree) in
        t.blocks.(s) <- block;
        Itbl.set t.index key s;
        t.cnt.(s) <- 1;
        t.lid.(s) <- 0;
        join t s key
      end
    | Evict { block } ->
      let key = Block.pack block in
      let s = Itbl.find t.index key in
      if s >= 0 then begin
        Ghost.push t.ghost key ~a:t.cnt.(s) ~b:t.level_of.(t.lid.(s));
        while Ghost.over t.ghost do
          let g = Ghost.oldest t.ghost in
          (* Expired un-referenced: the eviction was right. *)
          learn t g ~sign:(-1.0);
          Ghost.remove t.ghost g
        done;
        release t s key
      end
    | Invalidate { block } ->
      let key = Block.pack block in
      let s = Itbl.find t.index key in
      if s >= 0 then release t s key
    | Hint { block; level } ->
      let s = Itbl.find t.index (Block.pack block) in
      if s >= 0 then begin
        let lid = intern t level in
        if lid <> t.lid.(s) then begin
          t.lid.(s) <- lid;
          reclass t s
        end
      end

  (* Lowest dot-product score loses, ties broken by the smaller block:
     an explicit (score, block) minimum over the class tops, so the
     order of [live] is irrelevant. The dot product keeps the feature
     order of the weight vector, less the exact age term, so every
     score is bit-identical to a per-block feature array's. *)
  let victim t ~pos:_ ~missing:_ =
    if t.nlive = 0 then failwith "PERCEPTRON: empty";
    let w = t.w and key = t.keys.hi in
    let w0 = w.(0) and w2 = w.(2) and w3 = w.(3) and w4 = w.(4) in
    let best = ref 0.0 and pick = ref (-1) in
    for i = 0 to t.nlive - 1 do
      let c = t.live.(i) in
      let code = t.code.(c) in
      let s = Iheap.top t.members.(c) in
      let v =
        0.0 +. (w0 *. 1.0)
        +. (w2 *. freq_table.((code lsr 8) land 511))
        +. (w3 *. level_feature t.level_of.(code lsr 17))
        +. (w4 *. file_hash_table.(code land 255))
      in
      if !pick < 0 || v < !best || (v = !best && key.(s) < key.(!pick)) then begin
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
          ("resident", float_of_int (Itbl.length t.index));
        ];
      ]
end

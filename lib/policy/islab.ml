(* One recency list of blocks on columnar storage: free-listed slots
   over an {!Ilist} store with an {!Itbl} index keyed by {!Block.pack}.
   Every operation is O(1) and allocation-free at steady state. *)

module Block = Acfc_core.Block
module Ilist = Acfc_core.Ilist
module Itbl = Acfc_core.Itbl

type t = {
  store : Ilist.store;
  list : Ilist.t;
  tbl : Itbl.t; (* Block.pack -> slot *)
  mutable blocks : Block.t array; (* slot -> block *)
  mutable free : int array; (* stack of free slots *)
  mutable nfree : int;
  mutable len : int;
}

let dummy = Block.make ~file:0 ~index:0

let create n =
  let n = Stdlib.max 16 n in
  {
    store = Ilist.make_store n;
    list = Ilist.create ();
    tbl = Itbl.create n;
    blocks = Array.make n dummy;
    free = Array.init n (fun i -> n - 1 - i);
    nfree = n;
    len = 0;
  }

let grow t =
  let old = Array.length t.blocks in
  let cap = 2 * old in
  Ilist.grow_store t.store cap;
  let blocks = Array.make cap dummy in
  Array.blit t.blocks 0 blocks 0 old;
  t.blocks <- blocks;
  let free = Array.make cap 0 in
  Array.blit t.free 0 free 0 t.nfree;
  for i = 0 to old - 1 do
    free.(t.nfree + i) <- old + i
  done;
  t.free <- free;
  t.nfree <- t.nfree + old

let mem t block = Itbl.find t.tbl (Block.pack block) >= 0

let slot t block =
  let s = Itbl.find t.tbl (Block.pack block) in
  if s < 0 then failwith "Islab: block not resident";
  s

let push_front t block =
  if t.nfree = 0 then grow t;
  let s = t.free.(t.nfree - 1) in
  t.nfree <- t.nfree - 1;
  t.blocks.(s) <- block;
  Itbl.set t.tbl (Block.pack block) s;
  Ilist.push_front t.store t.list s;
  t.len <- t.len + 1

let move_front t block = Ilist.move_front t.store t.list (slot t block)

let remove t block =
  let key = Block.pack block in
  let s = Itbl.find t.tbl key in
  if s >= 0 then begin
    Ilist.remove t.store t.list s;
    Itbl.remove t.tbl key;
    t.free.(t.nfree) <- s;
    t.nfree <- t.nfree + 1;
    t.len <- t.len - 1
  end

let is_empty t = Ilist.is_empty t.list

let length t = t.len

let front t = t.blocks.(Ilist.front t.list)

let back t = t.blocks.(Ilist.back t.list)

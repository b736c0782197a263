type placeholder = { target : Entry.t; chooser : Pid.t }

type t = {
  config : Config.t;
  acm : Acm_ref.t;
  backend : Backend.t;
  table : (Block.t, Entry.t) Hashtbl.t;
  global : Entry.t Dll.t;  (* front = MRU, back = LRU *)
  placeholders : (Block.t, placeholder) Hashtbl.t;
  ph_fifo : Block.t Queue.t;  (* creation order, for recycling over the limit *)
  mutable tracer : (Event.t -> unit) option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable overrule_count : int;
  mutable placeholders_created : int;
  mutable placeholders_used : int;
}

exception Cache_busy

let create config ~acm ~backend =
  {
    config;
    acm;
    backend;
    table = Hashtbl.create (2 * config.Config.capacity_blocks);
    global = Dll.create ();
    placeholders = Hashtbl.create 64;
    ph_fifo = Queue.create ();
    tracer = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
    overrule_count = 0;
    placeholders_created = 0;
    placeholders_used = 0;
  }

let set_tracer t tracer =
  t.tracer <- tracer;
  Acm_ref.set_tracer t.acm tracer

let emit t ev = match t.tracer with Some f -> f ev | None -> ()

(* {2 Placeholder bookkeeping} *)

let remove_placeholder t key =
  match Hashtbl.find_opt t.placeholders key with
  | None -> None
  | Some ph ->
    Hashtbl.remove t.placeholders key;
    Entry.remove_incoming ph.target key;
    Some ph

(* Forget every placeholder pointing at [e] (about to leave the cache). *)
let drop_placeholders_at t (e : Entry.t) =
  Entry.iter_incoming (fun key -> Hashtbl.remove t.placeholders key) e;
  Entry.clear_incoming e

let add_placeholder t ~replaced ~target ~chooser =
  if t.config.Config.max_placeholders > 0 then begin
    (* Replace any stale record for the same block. *)
    ignore (remove_placeholder t replaced);
    (* Recycle the oldest placeholders over the limit; the FIFO may hold
       keys of records already removed, which we just skip. *)
    while Hashtbl.length t.placeholders >= t.config.Config.max_placeholders do
      match Queue.take_opt t.ph_fifo with
      | None -> assert false  (* table non-empty implies FIFO non-empty *)
      | Some key -> ignore (remove_placeholder t key)
    done;
    Hashtbl.replace t.placeholders replaced { target; chooser };
    Queue.push replaced t.ph_fifo;
    Entry.add_incoming target replaced;
    t.placeholders_created <- t.placeholders_created + 1;
    emit t (Event.Placeholder_created { replaced; target = target.Entry.key; chooser })
  end

(* {2 Replacement} *)

let global_node_exn (e : Entry.t) =
  match e.Entry.global_node with
  | Some node -> node
  | None -> invalid_arg "Buf_ref: entry has no global node"

(* Remove [e] from every structure. Runs before any blocking backend
   call so that re-entrant cache operations see a consistent state. *)
let detach t (e : Entry.t) =
  Hashtbl.remove t.table e.Entry.key;
  Dll.remove t.global (global_node_exn e);
  e.Entry.global_node <- None;
  drop_placeholders_at t e;
  Acm_ref.block_gone t.acm e

(* LRU-end candidate, skipping pinned blocks and — while anything else
   is available — not-yet-referenced read-ahead blocks. *)
let lru_candidate t =
  let fallback = ref None in
  let rec walk = function
    | None -> (match !fallback with Some e -> e | None -> raise Cache_busy)
    | Some node ->
      let e = Dll.value node in
      if Entry.is_pinned e then walk (Dll.next_toward_front node)
      else if not e.Entry.referenced then begin
        if Option.is_none !fallback then fallback := Some e;
        walk (Dll.next_toward_front node)
      end
      else e
  in
  walk (Dll.back t.global)

(* Second-chance candidate for the CLOCK global order (Sec. 7's
   virtual-memory variant): the hand sweeps from the oldest end; a page
   with its reference bit set is given a second chance (bit cleared,
   rotated to the young end). Pinned and never-referenced read-ahead
   pages are rotated without clearing, with the same fallback rule as
   the LRU walk. Bounded by 2n rotations. *)
let clock_candidate t =
  let fallback = ref None in
  let budget = ref (2 * Dll.length t.global) in
  let rec sweep () =
    if !budget <= 0 then
      match !fallback with Some e -> e | None -> raise Cache_busy
    else begin
      decr budget;
      match Dll.back t.global with
      | None -> raise Cache_busy
      | Some node ->
        let e = Dll.value node in
        if Entry.is_pinned e then begin
          Dll.move_front t.global node;
          sweep ()
        end
        else if not e.Entry.referenced then begin
          if Option.is_none !fallback then fallback := Some e;
          Dll.move_front t.global node;
          sweep ()
        end
        else if e.Entry.clock_ref then begin
          e.Entry.clock_ref <- false;
          Dll.move_front t.global node;
          sweep ()
        end
        else e
    end
  in
  sweep ()

let pick_candidate t =
  match t.config.Config.alloc_policy with
  | Config.Clock_sp -> clock_candidate t
  | Config.Global_lru | Config.Alloc_lru | Config.Lru_s | Config.Lru_sp ->
    lru_candidate t

(* Swap the global-list positions of the kernel's candidate and the
   manager's alternative (Fig. 2 of the paper). *)
let swap_global t (a : Entry.t) (b : Entry.t) =
  Dll.swap_values t.global (global_node_exn a) (global_node_exn b)
    ~on_move:(fun (e : Entry.t) node -> e.Entry.global_node <- Some node)

(* Evict exactly one block to make room for [missing]. [ph] is the
   consumed placeholder for [missing], if there was one. *)
let evict_one t ~ph ~missing =
  let candidate =
    match ph with
    | Some p when not (Entry.is_pinned p.target) ->
      t.placeholders_used <- t.placeholders_used + 1;
      emit t
        (Event.Placeholder_used
           { missing; target = p.target.Entry.key; chooser = p.chooser });
      Acm_ref.placeholder_used t.acm ~chooser:p.chooser ~missing ~target:p.target;
      p.target
    | Some _ | None -> pick_candidate t
  in
  let chosen =
    match t.config.Config.alloc_policy with
    | Config.Global_lru -> candidate
    | Config.Alloc_lru | Config.Lru_s | Config.Lru_sp | Config.Clock_sp ->
      Acm_ref.replace_block t.acm ~candidate ~missing
  in
  let overruled = chosen != candidate in
  if overruled then begin
    t.overrule_count <- t.overrule_count + 1;
    (match t.config.Config.alloc_policy with
    | Config.Lru_s | Config.Lru_sp | Config.Clock_sp ->
      swap_global t candidate chosen;
    | Config.Alloc_lru -> ()
    | Config.Global_lru -> assert false (* never consults, cannot overrule *));
    match t.config.Config.alloc_policy with
    | Config.Lru_sp | Config.Clock_sp ->
      let chooser =
        match chosen.Entry.managed_by with
        | Some pid -> pid
        | None -> assert false (* only managers overrule *)
      in
      add_placeholder t ~replaced:chosen.Entry.key ~target:candidate ~chooser
    | Config.Global_lru | Config.Alloc_lru | Config.Lru_s -> ()
  end;
  emit t
    (Event.Evict
       {
         victim = chosen.Entry.key;
         owner = chosen.Entry.owner;
         candidate = candidate.Entry.key;
         overruled;
       });
  detach t chosen;
  t.evictions <- t.evictions + 1;
  if chosen.Entry.dirty then begin
    t.writebacks <- t.writebacks + 1;
    emit t (Event.Writeback chosen.Entry.key);
    t.backend.Backend.write_block chosen.Entry.key
  end;
  t.backend.Backend.evicted chosen.Entry.key

(* Install [key] in the cache, evicting if needed, and optionally fetch
   its contents. The entry is pinned during the fetch so re-entrant
   replacement cannot steal the frame. *)
let load t ~pid key ~dirty ~fetch ~prefetched =
  let ph = remove_placeholder t key in
  if Hashtbl.length t.table >= t.config.Config.capacity_blocks then
    evict_one t ~ph ~missing:key;
  let e = Entry.make ~key ~owner:pid in
  e.Entry.referenced <- not prefetched;
  e.Entry.dirty <- dirty;
  Hashtbl.replace t.table key e;
  e.Entry.global_node <- Some (Dll.push_front t.global e);
  Acm_ref.new_block t.acm ~pid ~prefetched e;
  if fetch then begin
    Entry.pin e;
    Fun.protect
      ~finally:(fun () -> Entry.unpin e)
      (fun () -> t.backend.Backend.read_block key)
  end

let touch t ~pid (e : Entry.t) =
  e.Entry.referenced <- true;
  (* Under CLOCK the global order is insertion/rotation order; a hit
     only sets the reference bit, exactly as a VM page cache's hardware
     bit would. *)
  (match t.config.Config.alloc_policy with
  | Config.Clock_sp -> e.Entry.clock_ref <- true
  | Config.Global_lru | Config.Alloc_lru | Config.Lru_s | Config.Lru_sp ->
    Dll.move_front t.global (global_node_exn e));
  Acm_ref.block_accessed t.acm ~pid e

let read ?(prefetch = false) t ~pid key =
  match Hashtbl.find_opt t.table key with
  | Some e ->
    t.hits <- t.hits + 1;
    emit t (Event.Hit { pid; block = key });
    touch t ~pid e;
    `Hit
  | None ->
    t.misses <- t.misses + 1;
    emit t (Event.Miss { pid; block = key; prefetch });
    load t ~pid key ~dirty:false ~fetch:true ~prefetched:prefetch;
    `Miss

let write t ~pid key ~fetch =
  match Hashtbl.find_opt t.table key with
  | Some e ->
    t.hits <- t.hits + 1;
    emit t (Event.Hit { pid; block = key });
    e.Entry.dirty <- true;
    touch t ~pid e;
    `Hit
  | None ->
    t.misses <- t.misses + 1;
    emit t (Event.Miss { pid; block = key; prefetch = false });
    load t ~pid key ~dirty:true ~fetch ~prefetched:false;
    `Miss

let sync t ?file () =
  let wanted (e : Entry.t) =
    e.Entry.dirty
    && (match file with Some f -> Block.file e.Entry.key = f | None -> true)
  in
  let dirty = Hashtbl.fold (fun _ e acc -> if wanted e then e :: acc else acc) t.table [] in
  (* Write in address order: what a real flush daemon's sorted queue
     would do, and deterministic for tests. *)
  let dirty =
    List.sort (fun (a : Entry.t) b -> Block.compare a.Entry.key b.Entry.key) dirty
  in
  let written = ref 0 in
  List.iter
    (fun (e0 : Entry.t) ->
      (* Re-check against the block's current entry: a concurrent
         eviction may have flushed it already, or the frame may have
         been recycled for a fresh copy of the same block. *)
      match Hashtbl.find_opt t.table e0.Entry.key with
      | Some e when e.Entry.dirty ->
        Entry.pin e;
        e.Entry.dirty <- false;
        t.writebacks <- t.writebacks + 1;
        incr written;
        emit t (Event.Writeback e.Entry.key);
        Fun.protect
          ~finally:(fun () -> Entry.unpin e)
          (fun () -> t.backend.Backend.write_block e.Entry.key)
      | Some _ | None -> ())
    dirty;
  !written

let invalidate_file t ~file =
  let entries =
    Hashtbl.fold
      (fun key e acc -> if Block.file key = file then e :: acc else acc)
      t.table []
  in
  (* Ascending block order: deterministic regardless of table layout. *)
  let entries =
    List.sort (fun (a : Entry.t) b -> Block.compare a.Entry.key b.Entry.key) entries
  in
  let dropped = ref 0 in
  List.iter
    (fun (e : Entry.t) ->
      if
        (match Hashtbl.find_opt t.table e.Entry.key with
        | Some e' -> e' == e
        | None -> false)
        && not (Entry.is_pinned e)
      then begin
        detach t e;
        incr dropped;
        t.backend.Backend.evicted e.Entry.key
      end)
    entries;
  !dropped

let length t = Hashtbl.length t.table

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let writebacks t = t.writebacks
let overrule_count t = t.overrule_count
let placeholders_created t = t.placeholders_created
let placeholders_used t = t.placeholders_used
let placeholder_count t = Hashtbl.length t.placeholders

let lru_keys t = List.map (fun (e : Entry.t) -> e.Entry.key) (Dll.to_list t.global)

let check_invariants t =
  if Hashtbl.length t.table > t.config.Config.capacity_blocks then
    failwith "Buf_ref: over capacity";
  if Dll.length t.global <> Hashtbl.length t.table then
    failwith "Buf_ref: global list / table size mismatch";
  Dll.iter
    (fun (e : Entry.t) ->
      (match Hashtbl.find_opt t.table e.Entry.key with
      | Some e' when e' == e -> ()
      | Some _ | None -> failwith "Buf_ref: global-list entry not in table");
      match e.Entry.global_node with
      | Some node when Dll.contains t.global node && Dll.value node == e -> ()
      | Some _ | None -> failwith "Buf_ref: bad global node back-pointer")
    t.global;
  Hashtbl.iter
    (fun key ph ->
      (match Hashtbl.find_opt t.table ph.target.Entry.key with
      | Some e when e == ph.target -> ()
      | Some _ | None -> failwith "Buf_ref: placeholder target not resident");
      if not (Entry.has_incoming ph.target key) then
        failwith "Buf_ref: placeholder missing from target's incoming list")
    t.placeholders;
  Acm_ref.check_invariants t.acm

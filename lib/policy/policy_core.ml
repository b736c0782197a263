module Block = Acfc_core.Block
module Itbl = Acfc_core.Itbl

type event =
  | Reference of { pos : int; block : Block.t }
  | Admit of { pos : int; block : Block.t }
  | Evict of { block : Block.t }
  | Invalidate of { block : Block.t }
  | Hint of { block : Block.t; level : int }

module type CORE = sig
  type t

  val name : string
  val summary : string
  val adaptive : bool
  val needs_future : bool
  val create : capacity:int -> future:Block.t array -> t
  val on_event : t -> event -> unit
  val victim : t -> pos:int -> missing:Block.t -> Block.t
  val stats : t -> (string * float) list
end

module type SIM = sig
  type t

  val name : string
  val init : capacity:int -> Block.t array -> t
  val hit : t -> pos:int -> Block.t -> unit
  val choose_victim : t -> pos:int -> missing:Block.t -> Block.t
  val inserted : t -> pos:int -> Block.t -> unit
  val evicted : t -> Block.t -> unit
end

module Offline (C : CORE) : SIM with type t = C.t = struct
  type t = C.t

  let name = C.name

  let init ~capacity trace = C.create ~capacity ~future:trace

  let hit t ~pos block = C.on_event t (Reference { pos; block })

  let choose_victim t ~pos ~missing = C.victim t ~pos ~missing

  let inserted t ~pos block = C.on_event t (Admit { pos; block })

  let evicted t block = C.on_event t (Evict { block })
end

type replay = { hits : int; misses : int; victims : Block.t list }

let replay (module C : CORE) ~capacity trace =
  if capacity <= 0 then invalid_arg "Policy_core.replay: capacity must be positive";
  let t = C.create ~capacity ~future:trace in
  (* The resident set, keyed by packed block id (the value is unused). *)
  let resident = Itbl.create capacity in
  let hits = ref 0 and misses = ref 0 and victims = ref [] in
  Array.iteri
    (fun pos block ->
      let key = Block.pack block in
      if Itbl.mem resident key then begin
        incr hits;
        C.on_event t (Reference { pos; block })
      end
      else begin
        incr misses;
        if Itbl.length resident >= capacity then begin
          let v = C.victim t ~pos ~missing:block in
          let vkey = Block.pack v in
          if not (Itbl.mem resident vkey) then
            failwith
              (Printf.sprintf "Policy_core.replay: %s chose a non-resident victim"
                 C.name);
          Itbl.remove resident vkey;
          victims := v :: !victims;
          C.on_event t (Evict { block = v })
        end;
        Itbl.set resident key 0;
        C.on_event t (Admit { pos; block })
      end)
    trace;
  { hits = !hits; misses = !misses; victims = List.rev !victims }

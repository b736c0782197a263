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

let replay (module C : CORE) ~capacity ~evicted trace =
  if capacity <= 0 then invalid_arg "Policy_core.replay: capacity must be positive";
  let t = C.create ~capacity ~future:trace in
  (* The resident set, keyed by packed block id (the value is unused). *)
  let resident = Itbl.create capacity in
  let hits = ref 0 in
  Array.iteri
    (fun pos block ->
      let key = Block.pack block in
      if Itbl.mem resident key then begin
        incr hits;
        C.on_event t (Reference { pos; block })
      end
      else begin
        if Itbl.length resident >= capacity then begin
          let v = C.victim t ~pos ~missing:block in
          let vkey = Block.pack v in
          if not (Itbl.mem resident vkey) then
            failwith
              (Format.asprintf "policy %s evicted non-resident %a" C.name Block.pp v);
          Itbl.remove resident vkey;
          evicted pos v;
          C.on_event t (Evict { block = v })
        end;
        Itbl.set resident key 0;
        C.on_event t (Admit { pos; block })
      end)
    trace;
  !hits

type block = { file : int; index : int }

type t =
  | Cache_hit of { pid : int; block : block }
  | Cache_miss of { pid : int; block : block; prefetch : bool }
  | Evict of {
      victim : block;
      owner : int;
      candidate : block;
      policy : string;
      reason : string;
    }
  | Writeback of { block : block }
  | Swap of { kept : block; victim : block }
  | Placeholder_created of { replaced : block; target : block; chooser : int }
  | Placeholder_hit of { missing : block; target : block; chooser : int }
  | Manager_revoked of { pid : int }
  | Disk_io of {
      disk : string;
      kind : string;
      addr : int;
      blocks : int;
      seek : float;
      rot : float;
      xfer : float;
      wait : float;
    }
  | Syscall of { pid : int; op : string; detail : string }
  | Fiber of { name : string; op : string }

type record = { time : float; ev : t }

let kind = function
  | Cache_hit _ -> "cache_hit"
  | Cache_miss _ -> "cache_miss"
  | Evict _ -> "evict"
  | Writeback _ -> "writeback"
  | Swap _ -> "swap"
  | Placeholder_created _ -> "placeholder_created"
  | Placeholder_hit _ -> "placeholder_hit"
  | Manager_revoked _ -> "manager_revoked"
  | Disk_io _ -> "disk_io"
  | Syscall _ -> "syscall"
  | Fiber _ -> "fiber"

let pid = function
  | Cache_hit { pid; _ } | Cache_miss { pid; _ } | Manager_revoked { pid }
  | Syscall { pid; _ } ->
    Some pid
  | Evict { owner; _ } -> Some owner
  | Placeholder_created { chooser; _ } | Placeholder_hit { chooser; _ } -> Some chooser
  | Writeback _ | Swap _ | Disk_io _ | Fiber _ -> None

(* {2 JSON} *)

let int n = Json.Num (float_of_int n)

let blk prefix { file; index } =
  [ (prefix ^ "file", int file); (prefix ^ "index", int index) ]

let to_json { time; ev } =
  let fields =
    match ev with
    | Cache_hit { pid; block } -> (("pid", int pid) :: blk "" block)
    | Cache_miss { pid; block; prefetch } ->
      (("pid", int pid) :: blk "" block) @ [ ("prefetch", Json.Bool prefetch) ]
    | Evict { victim; owner; candidate; policy; reason } ->
      blk "victim_" victim
      @ [ ("owner", int owner) ]
      @ blk "cand_" candidate
      @ [ ("policy", Json.Str policy); ("reason", Json.Str reason) ]
    | Writeback { block } -> blk "" block
    | Swap { kept; victim } -> blk "kept_" kept @ blk "victim_" victim
    | Placeholder_created { replaced; target; chooser } ->
      blk "replaced_" replaced @ blk "target_" target @ [ ("chooser", int chooser) ]
    | Placeholder_hit { missing; target; chooser } ->
      blk "missing_" missing @ blk "target_" target @ [ ("chooser", int chooser) ]
    | Manager_revoked { pid } -> [ ("pid", int pid) ]
    | Disk_io { disk; kind; addr; blocks; seek; rot; xfer; wait } ->
      [
        ("disk", Json.Str disk);
        ("kind", Json.Str kind);
        ("addr", int addr);
        ("blocks", int blocks);
        ("seek", Json.Num seek);
        ("rot", Json.Num rot);
        ("xfer", Json.Num xfer);
        ("wait", Json.Num wait);
      ]
    | Syscall { pid; op; detail } ->
      [ ("pid", int pid); ("op", Json.Str op); ("detail", Json.Str detail) ]
    | Fiber { name; op } -> [ ("name", Json.Str name); ("op", Json.Str op) ]
  in
  Json.Obj ((("t", Json.Num time) :: ("ev", Json.Str (kind ev)) :: fields))

(* Strict: the members must be exactly the ones {!to_json} emits for the
   decoded event kind, so re-encoding the record names the known set. *)
let of_json =
  let open Json.Decode in
  let ( let* ) = Result.bind in
  let decode o =
    let i name = req o name int and str name = req o name str in
    let num name = req o name num in
    let block prefix =
      let* file = i (prefix ^ "file") in
      let* index = i (prefix ^ "index") in
      Ok { file; index }
    in
    let* time = num "t" in
    let* tag = str "ev" in
    let* ev =
      match tag with
      | "cache_hit" ->
        let* pid = i "pid" in
        let* block = block "" in
        Ok (Cache_hit { pid; block })
      | "cache_miss" ->
        let* pid = i "pid" in
        let* block = block "" in
        let* prefetch = req o "prefetch" bool in
        Ok (Cache_miss { pid; block; prefetch })
      | "evict" ->
        let* victim = block "victim_" in
        let* owner = i "owner" in
        let* candidate = block "cand_" in
        let* policy = str "policy" in
        let* reason = str "reason" in
        Ok (Evict { victim; owner; candidate; policy; reason })
      | "writeback" ->
        let* block = block "" in
        Ok (Writeback { block })
      | "swap" ->
        let* kept = block "kept_" in
        let* victim = block "victim_" in
        Ok (Swap { kept; victim })
      | "placeholder_created" ->
        let* replaced = block "replaced_" in
        let* target = block "target_" in
        let* chooser = i "chooser" in
        Ok (Placeholder_created { replaced; target; chooser })
      | "placeholder_hit" ->
        let* missing = block "missing_" in
        let* target = block "target_" in
        let* chooser = i "chooser" in
        Ok (Placeholder_hit { missing; target; chooser })
      | "manager_revoked" ->
        let* pid = i "pid" in
        Ok (Manager_revoked { pid })
      | "disk_io" ->
        let* disk = str "disk" in
        let* kind = str "kind" in
        let* addr = i "addr" in
        let* blocks = i "blocks" in
        let* seek = num "seek" in
        let* rot = num "rot" in
        let* xfer = num "xfer" in
        let* wait = num "wait" in
        Ok (Disk_io { disk; kind; addr; blocks; seek; rot; xfer; wait })
      | "syscall" ->
        let* pid = i "pid" in
        let* op = str "op" in
        let* detail = str "detail" in
        Ok (Syscall { pid; op; detail })
      | "fiber" ->
        let* name = str "name" in
        let* op = str "op" in
        Ok (Fiber { name; op })
      | tag -> fail (at o "ev") (Printf.sprintf "unknown event %S" tag)
    in
    let r = { time; ev } in
    let* () =
      match to_json r with Json.Obj m -> known o (List.map fst m) | _ -> Ok ()
    in
    Ok r
  in
  run ~label:"trace record" (obj decode)

(* {2 CSV} *)

let csv_header =
  "time,event,pid,file,index,aux_file,aux_index,owner,policy,reason,prefetch,disk,kind,addr,blocks,seek,rot,xfer,wait,op,name,detail"

type cells = {
  mutable pid_c : string;
  mutable file_c : string;
  mutable index_c : string;
  mutable aux_file : string;
  mutable aux_index : string;
  mutable owner_c : string;
  mutable policy_c : string;
  mutable reason_c : string;
  mutable prefetch_c : string;
  mutable disk_c : string;
  mutable kind_c : string;
  mutable addr_c : string;
  mutable blocks_c : string;
  mutable seek_c : string;
  mutable rot_c : string;
  mutable xfer_c : string;
  mutable wait_c : string;
  mutable op_c : string;
  mutable name_c : string;
  mutable detail_c : string;
}

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let fnum x = Json.to_string (Json.Num x)

let to_csv { time; ev } =
  let c =
    {
      pid_c = ""; file_c = ""; index_c = ""; aux_file = ""; aux_index = "";
      owner_c = ""; policy_c = ""; reason_c = ""; prefetch_c = ""; disk_c = "";
      kind_c = ""; addr_c = ""; blocks_c = ""; seek_c = ""; rot_c = "";
      xfer_c = ""; wait_c = ""; op_c = ""; name_c = ""; detail_c = "";
    }
  in
  let main b = c.file_c <- string_of_int b.file; c.index_c <- string_of_int b.index in
  let aux b = c.aux_file <- string_of_int b.file; c.aux_index <- string_of_int b.index in
  (match ev with
  | Cache_hit { pid; block } -> c.pid_c <- string_of_int pid; main block
  | Cache_miss { pid; block; prefetch } ->
    c.pid_c <- string_of_int pid;
    main block;
    c.prefetch_c <- string_of_bool prefetch
  | Evict { victim; owner; candidate; policy; reason } ->
    main victim;
    aux candidate;
    c.owner_c <- string_of_int owner;
    c.policy_c <- policy;
    c.reason_c <- reason
  | Writeback { block } -> main block
  | Swap { kept; victim } -> main kept; aux victim
  | Placeholder_created { replaced; target; chooser } ->
    main replaced; aux target; c.pid_c <- string_of_int chooser
  | Placeholder_hit { missing; target; chooser } ->
    main missing; aux target; c.pid_c <- string_of_int chooser
  | Manager_revoked { pid } -> c.pid_c <- string_of_int pid
  | Disk_io { disk; kind; addr; blocks; seek; rot; xfer; wait } ->
    c.disk_c <- disk;
    c.kind_c <- kind;
    c.addr_c <- string_of_int addr;
    c.blocks_c <- string_of_int blocks;
    c.seek_c <- fnum seek;
    c.rot_c <- fnum rot;
    c.xfer_c <- fnum xfer;
    c.wait_c <- fnum wait
  | Syscall { pid; op; detail } ->
    c.pid_c <- string_of_int pid;
    c.op_c <- op;
    c.detail_c <- csv_escape detail
  | Fiber { name; op } -> c.name_c <- csv_escape name; c.op_c <- op);
  String.concat ","
    [
      fnum time; kind ev; c.pid_c; c.file_c; c.index_c; c.aux_file; c.aux_index;
      c.owner_c; c.policy_c; c.reason_c; c.prefetch_c; c.disk_c; c.kind_c;
      c.addr_c; c.blocks_c; c.seek_c; c.rot_c; c.xfer_c; c.wait_c; c.op_c;
      c.name_c; c.detail_c;
    ]

let pp ppf r = Json.pp ppf (to_json r)

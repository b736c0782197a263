module Policy = Acfc_core.Policy
module Block = Acfc_core.Block
module Rng = Acfc_sim.Rng
module Json = Acfc_obs.Json

let block_bytes = Acfc_disk.Params.block_bytes

type advice =
  | Priority of { file : int; prio : int }
  | Policy of { prio : int; policy : Policy.t }
  | Temppri of { file : int; first : int; last : int; prio : int }
  | Done_with of { file : int; index : int }

type op =
  | Open of { name : string; size_blocks : int; reserve_blocks : int }
  | Read of { file : int; first : int; count : int; cpu : float; done_with : bool }
  | Write of { file : int; first : int; count : int; cpu : float; done_with : bool }
  | Rand_read of { file : int; base : int; range : int; cpu : float }
  | Compute of float
  | Advise of advice
  | Unlink of { file : int }
  | Seq of op list
  | Loop of { times : int; body : op list }
  | Choice of { prob : float; if_true : op list; if_false : op list }

type t = { name : string; category : string; ops : op list }

(* {2 Construction} *)

let make ~name ~category ops = { name; category; ops }

let open_file ?reserve_blocks ~name ~size_blocks () =
  let reserve_blocks =
    match reserve_blocks with Some r -> r | None -> Stdlib.max 1 size_blocks
  in
  Open { name; size_blocks; reserve_blocks }

let read ?(cpu = 0.0) ?(done_with = false) ~file ~first ~count () =
  Read { file; first; count; cpu; done_with }

let write ?(cpu = 0.0) ?(done_with = false) ~file ~first ~count () =
  Write { file; first; count; cpu; done_with }

let rand_read ?(cpu = 0.0) ~file ~base ~range () = Rand_read { file; base; range; cpu }

let compute seconds = Compute seconds

let set_priority ~file ~prio = Advise (Priority { file; prio })

let set_policy ~prio policy = Advise (Policy { prio; policy })

let set_temppri ~file ~first ~last ~prio = Advise (Temppri { file; first; last; prio })

let done_with ~file ~index = Advise (Done_with { file; index })

let unlink file = Unlink { file }

let seq ops = Seq ops

let loop times body = Loop { times; body }

let choice ~prob if_true if_false = Choice { prob; if_true; if_false }

(* {2 Program statistics} *)

let rec count_ops acc = function
  | Seq body -> List.fold_left count_ops acc body
  | Loop { body; _ } -> List.fold_left count_ops acc body + 1
  | Choice { if_true; if_false; _ } ->
    List.fold_left count_ops (List.fold_left count_ops acc if_true) if_false + 1
  | Open _ | Read _ | Write _ | Rand_read _ | Compute _ | Advise _ | Unlink _ -> acc + 1

let op_count t = List.fold_left count_ops 0 t.ops

let rec count_opens acc = function
  | Open _ -> acc + 1
  | Seq body -> List.fold_left count_opens acc body
  (* Opens are illegal inside Loop/Choice, but count what is there so
     the statistic stays truthful on unvalidated programs. *)
  | Loop { body; _ } -> List.fold_left count_opens acc body
  | Choice { if_true; if_false; _ } ->
    List.fold_left count_opens (List.fold_left count_opens acc if_true) if_false
  | Read _ | Write _ | Rand_read _ | Compute _ | Advise _ | Unlink _ -> acc

let file_count t = List.fold_left count_opens 0 t.ops

(* {2 Static checking}

   Internal errors are (path, message) pairs; the boundary functions
   stamp on the label ("wir:" or the embedding document's), so a
   program nested in a scenario reports scenario-rooted paths. *)

let ( let* ) = Result.bind

type slot = { reserve : int; file_name : string; mutable live : bool }

(* An op's JSON path, rendered only when the op reports an error: a
   valid program (every [exec]) formats no path string. *)
type path = Root of string | Elem of path * string * int

let rec render = function
  | Root s -> s
  | Elem (p, field, i) -> Printf.sprintf "%s.%s[%d]" (render p) field i

(* [first] and [count] are non-negative, so [first + count] wraps
   exactly when [first > max_int - count]; such an extent is named by
   its start and length instead of its end. Top level, so the closures
   in [check] do not capture it. *)
let past_extent path verb file ~first ~count s =
  let blocks =
    if first > max_int - count then Printf.sprintf "%d blocks from block %d" count first
    else Printf.sprintf "blocks [%d, %d)" first (first + count)
  in
  Error
    ( render path,
      Printf.sprintf "%s of %s exceeds file %d's %d-block extent" verb blocks file
        s.reserve )

let check ~path t =
  let slots : slot array ref = ref [||] in
  let n_slots = ref 0 in
  let push s =
    if !n_slots = Array.length !slots then begin
      let grown = Array.make (Stdlib.max 8 (2 * !n_slots)) s in
      Array.blit !slots 0 grown 0 !n_slots;
      slots := grown
    end;
    !slots.(!n_slots) <- s;
    incr n_slots
  in
  let err path msg = Error (render path, msg) in
  let slot path file =
    if file < 0 || file >= !n_slots then
      err path (Printf.sprintf "file %d is not open (%d file%s opened so far)" file !n_slots
           (if !n_slots = 1 then "" else "s"))
    else if not !slots.(file).live then
      err path (Printf.sprintf "file %d was unlinked" file)
    else Ok !slots.(file)
  in
  let finite_nonneg path what v =
    if Float.is_nan v || v < 0.0 || v = Float.infinity then
      err path (Printf.sprintf "%s must be a finite non-negative number" what)
    else Ok ()
  in
  let check_range path verb file ~first ~count =
    let* s = slot path file in
    if first < 0 then err path (Printf.sprintf "%s starts at negative block %d" verb first)
    else if count < 1 then err path (Printf.sprintf "%s count must be at least 1" verb)
    else if first > s.reserve - count then
      (* Not [first + count > reserve]: that sum can wrap past max_int. *)
      past_extent path verb file ~first ~count s
    else Ok ()
  in
  let rec check_op ~static ~path = function
    | Open { name; size_blocks; reserve_blocks } ->
      if not static then err path "open is not allowed inside loop or choice"
      else if name = "" then err path "file name must be non-empty"
      else if size_blocks < 0 then err path "size_blocks must be non-negative"
      else if reserve_blocks < Stdlib.max 1 size_blocks then
        err path "reserve_blocks must be at least max(1, size_blocks)"
      else if
        Array.exists (fun s -> s.live && s.file_name = name)
          (Array.sub !slots 0 !n_slots)
      then err path (Printf.sprintf "duplicate file name %S" name)
      else Ok (push { reserve = reserve_blocks; file_name = name; live = true })
    | Read { file; first; count; cpu; _ } ->
      let* () = check_range path "read" file ~first ~count in
      finite_nonneg path "cpu" cpu
    | Write { file; first; count; cpu; _ } ->
      let* () = check_range path "write" file ~first ~count in
      finite_nonneg path "cpu" cpu
    | Rand_read { file; base; range; cpu } ->
      let* s = slot path file in
      let* () =
        if base < 0 then err path (Printf.sprintf "read starts at negative block %d" base)
        else if range < 1 then err path "range must be at least 1"
        else if base > s.reserve - range then
          past_extent path "read" file ~first:base ~count:range s
        else Ok ()
      in
      finite_nonneg path "cpu" cpu
    | Compute seconds -> finite_nonneg path "seconds" seconds
    | Advise (Priority { file; _ }) ->
      let* _ = slot path file in
      Ok ()
    | Advise (Policy _) -> Ok ()
    | Advise (Temppri { file; first; last; _ }) ->
      let* s = slot path file in
      if first < 0 || last < first || last >= s.reserve then
        err path
          (Printf.sprintf "temppri range [%d, %d] outside file %d's %d-block extent"
             first last file s.reserve)
      else Ok ()
    | Advise (Done_with { file; index }) ->
      let* s = slot path file in
      if index < 0 || index >= s.reserve then
        err path
          (Printf.sprintf "done_with block %d outside file %d's %d-block extent" index
             file s.reserve)
      else Ok ()
    | Unlink { file } ->
      if not static then err path "unlink is not allowed inside loop or choice"
      else
        let* s = slot path file in
        s.live <- false;
        Ok ()
    | Seq body -> check_body ~static ~path ~field:"body" body
    | Loop { times; body } ->
      if times < 0 then err path "times must be non-negative"
      else check_body ~static:false ~path ~field:"body" body
    | Choice { prob; if_true; if_false } ->
      if Float.is_nan prob || prob < 0.0 || prob > 1.0 then
        err path "prob must be between 0 and 1"
      else
        let* () = check_body ~static:false ~path ~field:"then" if_true in
        check_body ~static:false ~path ~field:"else" if_false
  and check_body ~static ~path ~field body =
    let _, r =
      List.fold_left
        (fun (i, acc) op ->
          ( i + 1,
            let* () = acc in
            check_op ~static ~path:(Elem (path, field, i)) op ))
        (0, Ok ()) body
    in
    r
  in
  let* () =
    if t.name = "" then Error (path ^ ".name", "program name must be non-empty") else Ok ()
  in
  let _, r =
    List.fold_left
      (fun (i, acc) op ->
        ( i + 1,
          let* () = acc in
          check_op ~static:true ~path:(Elem (Root path, "ops", i)) op ))
      (0, Ok ()) t.ops
  in
  r

let validate_at ~label ~path t = Json.Decode.label label (check ~path t)

let validate t = validate_at ~label:"wir" ~path:"$" t

(* {2 Execution} *)

let exec t env ~disk =
  (match validate t with Ok () -> () | Error e -> failwith e);
  let files = ref [||] in
  let n_files = ref 0 in
  let push f =
    if !n_files = Array.length !files then begin
      let grown = Array.make (Stdlib.max 8 (2 * !n_files)) f in
      Array.blit !files 0 grown 0 !n_files;
      files := grown
    end;
    !files.(!n_files) <- f;
    incr n_files
  in
  let file i = !files.(i) in
  let rec run op =
    match op with
    | Open { name; size_blocks; reserve_blocks } ->
      (* validate guarantees reserve_blocks >= max 1 size_blocks, which
         is exactly Fs.create_file's default rounding — so passing the
         reserve unconditionally is identical to the historical
         closures, which passed it only when growing a size-0 file. *)
      push
        (Acfc_fs.Fs.create_file env.Env.fs ~owner:env.Env.pid
           ~name:(Env.unique_name env name) ~disk
           ~size_bytes:(size_blocks * block_bytes)
           ~reserve_bytes:(reserve_blocks * block_bytes) ())
    | Read { file = i; first; count; cpu; done_with } ->
      let f = file i in
      for b = first to first + count - 1 do
        Env.read_blocks env f ~first:b ~count:1;
        Env.compute env cpu;
        if done_with then Env.done_with_block env f b
      done
    | Write { file = i; first; count; cpu; done_with } ->
      let f = file i in
      for b = first to first + count - 1 do
        Env.write_blocks env f ~first:b ~count:1;
        Env.compute env cpu;
        if done_with then Env.done_with_block env f b
      done
    | Rand_read { file = i; base; range; cpu } ->
      let f = file i in
      Env.read_blocks env f ~first:(base + Rng.int env.Env.rng range) ~count:1;
      Env.compute env cpu
    | Compute seconds -> Env.compute env seconds
    | Advise (Priority { file = i; prio }) -> Env.set_priority env (file i) prio
    | Advise (Policy { prio; policy }) -> Env.set_policy env ~prio policy
    | Advise (Temppri { file = i; first; last; prio }) ->
      Env.set_temppri env (file i) ~first ~last ~prio
    | Advise (Done_with { file = i; index }) -> Env.done_with_block env (file i) index
    | Unlink { file = i } -> Acfc_fs.Fs.unlink env.Env.fs (file i)
    | Seq body -> List.iter run body
    | Loop { times; body } ->
      for _ = 1 to times do
        List.iter run body
      done
    | Choice { prob; if_true; if_false } ->
      if Rng.float env.Env.rng 1.0 < prob then List.iter run if_true
      else List.iter run if_false
  in
  List.iter run t.ops

let references ?rng t =
  (match validate t with Ok () -> () | Error e -> failwith e);
  let rng = match rng with Some r -> r | None -> Rng.create 0 in
  let out = ref [||] in
  let n = ref 0 in
  let push b =
    if !n = Array.length !out then begin
      let grown = Array.make (Stdlib.max 1024 (2 * !n)) b in
      Array.blit !out 0 grown 0 !n;
      out := grown
    end;
    !out.(!n) <- b;
    incr n
  in
  let next_slot = ref 0 in
  let rec run op =
    match op with
    | Open _ -> incr next_slot
    | Read { file; first; count; _ } | Write { file; first; count; _ } ->
      for b = first to first + count - 1 do
        push (Block.make ~file ~index:b)
      done
    | Rand_read { file; base; range; _ } ->
      push (Block.make ~file ~index:(base + Rng.int rng range))
    | Compute _ | Advise _ | Unlink _ -> ()
    | Seq body -> List.iter run body
    | Loop { times; body } ->
      for _ = 1 to times do
        List.iter run body
      done
    | Choice { prob; if_true; if_false } ->
      if Rng.float rng 1.0 < prob then List.iter run if_true else List.iter run if_false
  in
  List.iter run t.ops;
  Array.sub !out 0 !n

(* {2 Serialisation} *)

let schema = "acfc-wir/1"

let num_i n = Json.Num (float_of_int n)

let advice_to_json = function
  | Priority { file; prio } ->
    [ ("kind", Json.Str "priority"); ("file", num_i file); ("prio", num_i prio) ]
  | Policy { prio; policy } ->
    [
      ("kind", Json.Str "policy");
      ("prio", num_i prio);
      ("policy", Json.Str (Policy.to_string policy));
    ]
  | Temppri { file; first; last; prio } ->
    [
      ("kind", Json.Str "temppri");
      ("file", num_i file);
      ("first", num_i first);
      ("last", num_i last);
      ("prio", num_i prio);
    ]
  | Done_with { file; index } ->
    [ ("kind", Json.Str "done_with"); ("file", num_i file); ("index", num_i index) ]

let rec op_to_json op =
  let rw tag file first count cpu done_with =
    [ ("op", Json.Str tag); ("file", num_i file); ("first", num_i first); ("count", num_i count) ]
    @ (if cpu <> 0.0 then [ ("cpu", Json.Num cpu) ] else [])
    @ if done_with then [ ("done_with", Json.Bool true) ] else []
  in
  Json.Obj
    (match op with
    | Open { name; size_blocks; reserve_blocks } ->
      [ ("op", Json.Str "open"); ("name", Json.Str name); ("size_blocks", num_i size_blocks) ]
      @
      if reserve_blocks <> Stdlib.max 1 size_blocks then
        [ ("reserve_blocks", num_i reserve_blocks) ]
      else []
    | Read { file; first; count; cpu; done_with } -> rw "read" file first count cpu done_with
    | Write { file; first; count; cpu; done_with } ->
      rw "write" file first count cpu done_with
    | Rand_read { file; base; range; cpu } ->
      [
        ("op", Json.Str "rand_read");
        ("file", num_i file);
        ("base", num_i base);
        ("range", num_i range);
      ]
      @ (if cpu <> 0.0 then [ ("cpu", Json.Num cpu) ] else [])
    | Compute seconds -> [ ("op", Json.Str "compute"); ("seconds", Json.Num seconds) ]
    | Advise advice -> ("op", Json.Str "advise") :: advice_to_json advice
    | Unlink { file } -> [ ("op", Json.Str "unlink"); ("file", num_i file) ]
    | Seq body -> [ ("op", Json.Str "seq"); ("body", Json.List (List.map op_to_json body)) ]
    | Loop { times; body } ->
      [
        ("op", Json.Str "loop");
        ("times", num_i times);
        ("body", Json.List (List.map op_to_json body));
      ]
    | Choice { prob; if_true; if_false } ->
      [
        ("op", Json.Str "choice");
        ("prob", Json.Num prob);
        ("then", Json.List (List.map op_to_json if_true));
      ]
      @
      if if_false <> [] then [ ("else", Json.List (List.map op_to_json if_false)) ]
      else [])

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("name", Json.Str t.name);
      ("category", Json.Str t.category);
      ("ops", Json.List (List.map op_to_json t.ops));
    ]

(* {3 Parsing} *)

module D = Json.Decode

let decode_advice o =
  let* kind = D.req o "kind" D.str in
  let strict extra = D.known o ("op" :: "kind" :: extra) in
  let int name = D.req o name D.int in
  match kind with
  | "priority" ->
    let* () = strict [ "file"; "prio" ] in
    let* file = int "file" in
    let* prio = int "prio" in
    Ok (Priority { file; prio })
  | "policy" ->
    let* () = strict [ "prio"; "policy" ] in
    let* prio = int "prio" in
    let* p = D.req o "policy" D.str in
    (match Policy.of_string p with
    | Some policy -> Ok (Policy { prio; policy })
    | None ->
      D.fail (D.at o "policy")
        (Printf.sprintf "unknown policy %S (expected lru or mru)" p))
  | "temppri" ->
    let* () = strict [ "file"; "first"; "last"; "prio" ] in
    let* file = int "file" in
    let* first = int "first" in
    let* last = int "last" in
    let* prio = int "prio" in
    Ok (Temppri { file; first; last; prio })
  | "done_with" ->
    let* () = strict [ "file"; "index" ] in
    let* file = int "file" in
    let* index = int "index" in
    Ok (Done_with { file; index })
  | k ->
    D.fail (D.at o "kind")
      (Printf.sprintf "unknown advice kind %S (expected priority, policy, temppri or done_with)"
         k)

let rec decode_op : op D.t =
 fun ~path j ->
  D.obj ~what:"an op object"
    (fun o ->
      let* tag = D.req o "op" D.str in
      let strict known = D.known o ("op" :: known) in
      let int name = D.req o name D.int in
      let cpu () = D.default o "cpu" D.num 0.0 in
      let body name = D.req o name (D.list decode_op) in
      let rw make =
        let* () = strict [ "file"; "first"; "count"; "cpu"; "done_with" ] in
        let* file = int "file" in
        let* first = int "first" in
        let* count = int "count" in
        let* cpu = cpu () in
        let* done_with = D.default o "done_with" D.bool false in
        Ok (make ~file ~first ~count ~cpu ~done_with)
      in
      match tag with
      | "open" ->
        let* () = strict [ "name"; "size_blocks"; "reserve_blocks" ] in
        let* name = D.req o "name" D.str in
        let* size_blocks = int "size_blocks" in
        let* reserve_blocks =
          D.default o "reserve_blocks" D.int (Stdlib.max 1 size_blocks)
        in
        Ok (Open { name; size_blocks; reserve_blocks })
      | "read" ->
        rw (fun ~file ~first ~count ~cpu ~done_with ->
            Read { file; first; count; cpu; done_with })
      | "write" ->
        rw (fun ~file ~first ~count ~cpu ~done_with ->
            Write { file; first; count; cpu; done_with })
      | "rand_read" ->
        let* () = strict [ "file"; "base"; "range"; "cpu" ] in
        let* file = int "file" in
        let* base = int "base" in
        let* range = int "range" in
        let* cpu = cpu () in
        Ok (Rand_read { file; base; range; cpu })
      | "compute" ->
        let* () = strict [ "seconds" ] in
        let* seconds = D.req o "seconds" D.num in
        Ok (Compute seconds)
      | "advise" ->
        let* advice = decode_advice o in
        Ok (Advise advice)
      | "unlink" ->
        let* () = strict [ "file" ] in
        let* file = int "file" in
        Ok (Unlink { file })
      | "seq" ->
        let* () = strict [ "body" ] in
        let* ops = body "body" in
        Ok (Seq ops)
      | "loop" ->
        let* () = strict [ "times"; "body" ] in
        let* times = int "times" in
        let* ops = body "body" in
        Ok (Loop { times; body = ops })
      | "choice" ->
        let* () = strict [ "prob"; "then"; "else" ] in
        let* prob = D.req o "prob" D.num in
        let* if_true = body "then" in
        let* if_false = D.default o "else" (D.list decode_op) [] in
        Ok (Choice { prob; if_true; if_false })
      | tag ->
        D.fail (D.at o "op")
          (Printf.sprintf
             "unknown op %S (expected open, read, write, rand_read, compute, advise, \
              unlink, seq, loop or choice)"
             tag))
    ~path j

let decoder : t D.t =
  D.record [ "schema"; "name"; "category"; "ops" ] (fun o ->
      let* () = D.schema o schema in
      let* name = D.req o "name" D.str in
      let* category = D.default o "category" D.str "custom" in
      let* ops = D.req o "ops" (D.list decode_op) in
      Ok { name; category; ops })

let of_json = D.run ~label:"wir" decoder

let to_string t = Json.to_string (to_json t)

let of_string = D.of_string ~label:"wir" decoder

let save t path = Json.write_file path (to_string t ^ "\n")

let load = D.load ~label:"wir" decoder

let hash t = Digest.to_hex (Digest.string (to_string t))

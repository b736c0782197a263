type t = { root : string; lock : Mutex.t }

type outcome =
  | Created of Manifest.entry
  | Exists of Manifest.entry

let manifest_path t = Filename.concat t.root "manifest.json"
let tmp_dir t = Filename.concat t.root "tmp"
let lock_path t = Filename.concat t.root ".lock"
let kind_dir t kind = Filename.concat t.root (Kind.dir kind)
let path t ~kind ~digest = Filename.concat (kind_dir t kind) digest
let root t = t.root

let digest_of content = Digest.to_hex (Digest.string content)

let mkdir_p dir =
  let rec go dir =
    if not (Sys.file_exists dir) then begin
      go (Filename.dirname dir);
      try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let open_ root =
  mkdir_p root;
  let t = { root; lock = Mutex.create () } in
  mkdir_p (tmp_dir t);
  List.iter (fun k -> mkdir_p (kind_dir t k)) Kind.all;
  if Sys.file_exists (manifest_path t) then
    match Manifest.load (manifest_path t) with
    | Ok _ -> Ok t
    | Error e -> Error (Printf.sprintf "store: bad manifest at %s: %s" (manifest_path t) e)
  else Ok t

(* Serialise manifest read-modify-write cycles: a [Mutex.t] covers
   domains sharing this handle, an [lockf] byte lock covers other
   processes (and other handles) on the same store root. *)
let with_manifest_lock t f =
  Mutex.protect t.lock (fun () ->
      let fd = Unix.openfile (lock_path t) [ Unix.O_CREAT; Unix.O_RDWR ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.lockf fd Unix.F_LOCK 0;
          Fun.protect
            ~finally:(fun () -> try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ())
            f))

let load_manifest t =
  if Sys.file_exists (manifest_path t) then Manifest.load (manifest_path t)
  else Ok Manifest.empty

let manifest t =
  match with_manifest_lock t (fun () -> load_manifest t) with
  | Ok m -> m
  | Error _ -> Manifest.empty

let ( let* ) = Result.bind

(* Stage the bytes under tmp/, re-digest what landed on disk, then
   publish with link(2): atomic create-if-absent, so exactly one of
   any set of racing writers observes [Created]. *)
let publish t ~kind ~digest content =
  let final = path t ~kind ~digest in
  if Sys.file_exists final then Ok `Already
  else begin
    let tmp = Filename.temp_file ~temp_dir:(tmp_dir t) "ingest" ".part" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
      (fun () ->
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc content);
        let* landed = Result.map digest_of (Acfc_obs.Json.read_file tmp) in
        if not (String.equal landed digest) then
          Error
            (Printf.sprintf
               "store: staged bytes digest to %s, expected %s (write corrupted?)"
               landed digest)
        else
          match Unix.link tmp final with
          | () -> Ok `Won
          | exception Unix.Unix_error (Unix.EEXIST, _, _) -> Ok `Already)
  end

let add t ~kind ?label ?expect content =
  let digest = digest_of content in
  let* () =
    match expect with
    | Some e when not (String.equal e digest) ->
      Error
        (Printf.sprintf "store: content digests to %s, caller expected %s" digest e)
    | _ -> Ok ()
  in
  let* won = publish t ~kind ~digest content in
  with_manifest_lock t (fun () ->
      let* m = load_manifest t in
      let* m, entry =
        Manifest.add m ~kind ~digest ~bytes:(String.length content) ~label
      in
      Manifest.save m (manifest_path t);
      match won with
      | `Won -> Ok (Created entry)
      | `Already -> Ok (Exists entry))

let lookup t ~kind ~digest =
  let p = path t ~kind ~digest in
  if Sys.file_exists p then Some p else None

let contains t ~kind ~digest = Option.is_some (lookup t ~kind ~digest)

let read t ~kind ~digest =
  match lookup t ~kind ~digest with
  | None ->
    Error
      (Printf.sprintf "store: no %s entry %s" (Kind.to_string kind) digest)
  | Some p ->
    let* content = Acfc_obs.Json.read_file p in
    let actual = digest_of content in
    if String.equal actual digest then Ok content
    else
      Error
        (Printf.sprintf "store: corrupted entry %s/%s (bytes digest to %s)"
           (Kind.to_string kind) digest actual)

let resolve t ~label = Manifest.resolve (manifest t) ~label

let entries t = Manifest.entries (manifest t)

let available_digests t kind =
  match Sys.readdir (kind_dir t kind) with
  | exception Sys_error _ -> []
  | names ->
    let l = Array.to_list names in
    List.sort String.compare l

let verify t =
  let m = manifest t in
  let problems =
    List.filter_map
      (fun (e : Manifest.entry) ->
        match read t ~kind:e.kind ~digest:e.digest with
        | Ok content ->
          if String.length content <> e.bytes then
            Some
              (Printf.sprintf "%s/%s: size %d, manifest says %d"
                 (Kind.to_string e.kind) e.digest (String.length content) e.bytes)
          else None
        | Error msg -> Some msg)
      (Manifest.entries m)
  in
  if problems = [] then Ok (List.length (Manifest.entries m)) else Error problems

let gc t =
  with_manifest_lock t (fun () ->
      let m = match load_manifest t with Ok m -> m | Error _ -> Manifest.empty in
      let referenced kind digest =
        Option.is_some (Manifest.find m ~kind ~digest)
      in
      let removed = ref [] in
      let remove p =
        match Sys.remove p with
        | () -> removed := p :: !removed
        | exception Sys_error _ -> ()
      in
      List.iter
        (fun kind ->
          match Sys.readdir (kind_dir t kind) with
          | exception Sys_error _ -> ()
          | names ->
            Array.iter
              (fun name ->
                if not (referenced kind name) then
                  remove (Filename.concat (kind_dir t kind) name))
              names)
        Kind.all;
      (match Sys.readdir (tmp_dir t) with
      | exception Sys_error _ -> ()
      | names ->
        Array.iter (fun name -> remove (Filename.concat (tmp_dir t) name)) names);
      List.rev !removed)

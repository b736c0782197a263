module Json = Acfc_obs.Json

type entry = {
  seq : int;
  kind : Kind.t;
  digest : string;
  bytes : int;
  label : string option;
}

type t = { next_seq : int; entries : entry list }
(* [entries] is kept in ascending [seq] order. *)

let schema = "acfc-store/1"

let empty = { next_seq = 0; entries = [] }

let entries t = t.entries

let find t ~kind ~digest =
  List.find_opt (fun e -> e.kind = kind && String.equal e.digest digest) t.entries

let resolve t ~label =
  List.find_opt (fun e -> e.label = Some label) t.entries

let by_kind t kind = List.filter (fun e -> e.kind = kind) t.entries

let remove t ~kind ~digest =
  {
    t with
    entries =
      List.filter
        (fun e -> not (e.kind = kind && String.equal e.digest digest))
        t.entries;
  }

let add t ~kind ~digest ~bytes ~label =
  let label_clash =
    match label with
    | None -> None
    | Some l ->
      (match resolve t ~label:l with
      | Some e when e.kind <> kind || not (String.equal e.digest digest) -> Some e
      | _ -> None)
  in
  match label_clash with
  | Some e ->
    Error
      (Printf.sprintf
         "store: label %S is already bound to %s/%s"
         (Option.value ~default:"" label)
         (Kind.to_string e.kind) e.digest)
  | None ->
    (match find t ~kind ~digest with
    | Some e ->
      let e = if e.label = None then { e with label } else e in
      let entries =
        List.map (fun e' -> if e'.seq = e.seq then e else e') t.entries
      in
      Ok ({ t with entries }, e)
    | None ->
      let e = { seq = t.next_seq; kind; digest; bytes; label } in
      Ok ({ next_seq = t.next_seq + 1; entries = t.entries @ [ e ] }, e))

(* Codec — same strict discipline as the scenario/wir/wirgen formats. *)

let entry_to_json e =
  Json.Obj
    (List.concat
       [
         [
           ("seq", Json.Num (float_of_int e.seq));
           ("kind", Json.Str (Kind.to_string e.kind));
           ("digest", Json.Str e.digest);
           ("bytes", Json.Num (float_of_int e.bytes));
         ];
         (match e.label with
         | None -> []
         | Some l -> [ ("label", Json.Str l) ]);
       ])

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("next_seq", Json.Num (float_of_int t.next_seq));
      ("entries", Json.List (List.map entry_to_json t.entries));
    ]

module D = Json.Decode

let ( let* ) = Result.bind

let is_hex_digest s =
  String.length s = 32
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       s

let non_negative what =
  D.conv (fun n -> if n >= 0 then Ok n else Error (what ^ " must be non-negative")) D.int

let decode_entry =
  D.record ~what:"an entry object" [ "seq"; "kind"; "digest"; "bytes"; "label" ] (fun o ->
      let* seq = D.req o "seq" (non_negative "sequence") in
      let* kind =
        D.req o "kind"
          (D.conv
             (fun s ->
               Option.to_result ~none:(Printf.sprintf "unknown artifact kind %S" s)
                 (Kind.of_string s))
             D.str)
      in
      let* digest =
        D.req o "digest"
          (D.conv
             (fun s ->
               if is_hex_digest s then Ok s
               else Error "expected 32 lowercase hex characters")
             D.str)
      in
      let* bytes = D.req o "bytes" (non_negative "size") in
      let* label =
        D.opt o "label"
          (D.conv
             (fun s -> if s = "" then Error "label must be non-empty" else Ok s)
             D.str)
      in
      Ok { seq; kind; digest; bytes; label })

let decoder =
  D.record ~what:"a manifest object" [ "schema"; "next_seq"; "entries" ] (fun o ->
      let* () = D.schema o schema in
      let* next_seq = D.req o "next_seq" D.int in
      let* entries = D.req o "entries" (D.list ~what:"a list of entries" decode_entry) in
      let err = D.fail (D.at o "entries") in
      let* () =
        let rec check prev = function
          | [] -> Ok ()
          | e :: rest ->
            if e.seq <= prev then err "sequence numbers must be strictly increasing"
            else if e.seq >= next_seq then err "sequence number exceeds next_seq"
            else check e.seq rest
        in
        check (-1) entries
      in
      let* () =
        let seen = Hashtbl.create 16 in
        let rec check = function
          | [] -> Ok ()
          | { label = Some l; digest; kind; _ } :: rest ->
            (match Hashtbl.find_opt seen l with
            | Some (k', d') when k' <> kind || not (String.equal d' digest) ->
              err (Printf.sprintf "label %S bound to two digests" l)
            | _ ->
              Hashtbl.replace seen l (kind, digest);
              check rest)
          | _ :: rest -> check rest
        in
        check entries
      in
      Ok { next_seq; entries })

let of_json = D.run ~label:"store" decoder

let to_string t = Json.to_string (to_json t)

let of_string = D.of_string ~label:"store" decoder

let save t path = Json.write_file path (to_string t ^ "\n")

let load = D.load ~label:"store" decoder

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* {2 Printing} *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_num buf x =
  if Float.is_nan x then Buffer.add_string buf "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" x)
  else
    (* Shortest representation that round-trips. *)
    let s = Printf.sprintf "%.12g" x in
    if float_of_string s = x then Buffer.add_string buf s
    else Buffer.add_string buf (Printf.sprintf "%.17g" x)

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> add_num buf x
  | Str s -> escape buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        add buf v)
      items;
    Buffer.add_char buf ']'
  | Obj members ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf name;
        Buffer.add_char buf ':';
        add buf v)
      members;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string v)

(* {2 Parsing} *)

exception Parse_error of int * string

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> error (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      value
    end
    else error ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then error "unterminated escape";
         match s.[!pos] with
         | '"' -> Buffer.add_char buf '"'; advance ()
         | '\\' -> Buffer.add_char buf '\\'; advance ()
         | '/' -> Buffer.add_char buf '/'; advance ()
         | 'n' -> Buffer.add_char buf '\n'; advance ()
         | 'r' -> Buffer.add_char buf '\r'; advance ()
         | 't' -> Buffer.add_char buf '\t'; advance ()
         | 'b' -> Buffer.add_char buf '\b'; advance ()
         | 'f' -> Buffer.add_char buf '\012'; advance ()
         | 'u' ->
           advance ();
           if !pos + 4 > n then error "bad \\u escape";
           let hex = String.sub s !pos 4 in
           (match int_of_string_opt ("0x" ^ hex) with
           | None -> error "bad \\u escape"
           | Some code ->
             (* Only the codes our own printer emits (< 0x80); anything
                else is preserved as a replacement to stay total. *)
             if code < 0x80 then Buffer.add_char buf (Char.chr code)
             else Buffer.add_string buf "\xef\xbf\xbd";
             pos := !pos + 4)
         | c -> error (Printf.sprintf "bad escape %C" c));
        go ()
      | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numchar s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> x
    | None -> error "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let name = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((name, v) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((name, v) :: acc))
          | _ -> error "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); List [] end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items (v :: acc)
          | Some ']' -> advance (); List (List.rev (v :: acc))
          | _ -> error "expected ',' or ']'"
        in
        items []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then error "trailing garbage";
  v

let of_string s =
  match parse_exn s with
  | v -> Ok v
  | exception Parse_error (pos, msg) ->
    Error (Printf.sprintf "JSON parse error at byte %d: %s" pos msg)

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Num a, Num b -> a = b || (Float.is_nan a && Float.is_nan b)
  | Str a, Str b -> String.equal a b
  | List a, List b -> List.length a = List.length b && List.for_all2 equal a b
  | Obj a, Obj b ->
    List.length a = List.length b
    && List.for_all2 (fun (na, va) (nb, vb) -> String.equal na nb && equal va vb) a b
  | (Null | Bool _ | Num _ | Str _ | List _ | Obj _), _ -> false

(* [min_int] is -2^62, exact as a float; every integral float in
   [-2^62, 2^62) converts without wrapping. *)
let int_bound = -.Float.of_int min_int

(* {2 Files} *)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> Ok contents
  | exception Sys_error e -> Error e

let write_file path contents =
  let tmp =
    Filename.temp_file ~temp_dir:(Filename.dirname path) (Filename.basename path) ".tmp"
  in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc contents);
    Unix.chmod tmp 0o644;
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* {2 Strict decoding} *)

module Decode = struct
  type json = t

  type error = string * string

  type 'a t = path:string -> json -> ('a, error) result

  let ( let* ) = Result.bind

  let fail path msg = Error (path, msg)

  let int ~path = function
    | Num x when Float.is_integer x && x >= -.int_bound && x < int_bound ->
      Ok (int_of_float x)
    | _ -> fail path "expected an integer"

  let num ~path = function Num x -> Ok x | _ -> fail path "expected a number"

  let str ~path = function Str s -> Ok s | _ -> fail path "expected a string"

  let bool ~path = function Bool b -> Ok b | _ -> fail path "expected a boolean"

  let list ?(what = "a list") item ~path = function
    | List items ->
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest ->
          let* v = item ~path:(Printf.sprintf "%s[%d]" path i) x in
          go (i + 1) (v :: acc) rest
      in
      go 0 [] items
    | _ -> fail path ("expected " ^ what)

  let nullable d ~path = function
    | Null -> Ok None
    | j -> Result.map Option.some (d ~path j)

  let conv f d ~path j =
    let* v = d ~path j in
    Result.map_error (fun msg -> (path, msg)) (f v)

  type obj = { path : string; members : (string * json) list }

  let obj ?(what = "an object") f ~path = function
    | Obj members ->
      let rec dups seen = function
        | [] -> f { path; members }
        | (k, _) :: rest ->
          if List.mem k seen then fail path (Printf.sprintf "duplicate field %S" k)
          else dups (k :: seen) rest
      in
      dups [] members
    | _ -> fail path ("expected " ^ what)

  let known o names =
    match List.find_opt (fun (k, _) -> not (List.mem k names)) o.members with
    | None -> Ok ()
    | Some (k, _) -> fail o.path (Printf.sprintf "unknown field %S" k)

  let record ?what names f =
    obj ?what (fun o ->
        let* () = known o names in
        f o)

  let path o = o.path

  let at o name = o.path ^ "." ^ name

  let assoc ?what d =
    obj ?what (fun o ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | (k, v) :: rest ->
            let* x = d ~path:(at o k) v in
            go ((k, x) :: acc) rest
        in
        go [] o.members)

  let mem o name = List.mem_assoc name o.members

  let opt o name d =
    match List.assoc_opt name o.members with
    | None -> Ok None
    | Some v -> Result.map Option.some (d ~path:(at o name) v)

  let default o name d v = Result.map (Option.value ~default:v) (opt o name d)

  let req o name d =
    match List.assoc_opt name o.members with
    | None -> fail o.path (Printf.sprintf "missing required field %S" name)
    | Some v -> d ~path:(at o name) v

  let schema o expected =
    let* s = req o "schema" str in
    if s = expected then Ok ()
    else
      fail (at o "schema")
        (Printf.sprintf "unsupported schema %S (expected %s)" s expected)

  let label name =
    Result.map_error (fun (path, msg) -> Printf.sprintf "%s: %s at %s" name msg path)

  let run ~label:name d j = label name (d ~path:"$" j)

  let of_string ~label:name d s =
    match of_string s with
    | Error e -> Error (name ^ ": invalid JSON: " ^ e)
    | Ok j -> run ~label:name d j

  let load ~label:name d path =
    match read_file path with
    | Error e -> Error (name ^ ": " ^ e)
    | Ok s -> of_string ~label:name d s
end

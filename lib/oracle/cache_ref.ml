type t = { acm : Acm_ref.t; buf : Buf_ref.t }

exception Cache_busy = Buf_ref.Cache_busy

let create ?(backend = Backend.null) config =
  let acm = Acm_ref.create config in
  let buf = Buf_ref.create config ~acm ~backend in
  { acm; buf }

let set_tracer t tracer = Buf_ref.set_tracer t.buf tracer

let read ?prefetch t ~pid key = Buf_ref.read ?prefetch t.buf ~pid key

let write t ~pid key ~fetch = Buf_ref.write t.buf ~pid key ~fetch

let sync t ?file () = Buf_ref.sync t.buf ?file ()

let invalidate_file t ~file = Buf_ref.invalidate_file t.buf ~file

let length t = Buf_ref.length t.buf

let register_manager t pid = Acm_ref.register t.acm pid

let unregister_manager t pid = Acm_ref.unregister t.acm pid

let set_priority t pid ~file ~prio = Acm_ref.set_priority t.acm pid ~file ~prio

let set_policy t pid ~prio policy = Acm_ref.set_policy t.acm pid ~prio policy

let set_temppri t pid ~file ~first ~last ~prio =
  Acm_ref.set_temppri t.acm pid ~file ~first ~last ~prio

let set_chooser t pid chooser = Acm_ref.set_chooser t.acm pid chooser

let hits t = Buf_ref.hits t.buf
let misses t = Buf_ref.misses t.buf
let evictions t = Buf_ref.evictions t.buf
let writebacks t = Buf_ref.writebacks t.buf
let overrule_count t = Buf_ref.overrule_count t.buf
let placeholders_created t = Buf_ref.placeholders_created t.buf
let placeholders_used t = Buf_ref.placeholders_used t.buf
let placeholder_count t = Buf_ref.placeholder_count t.buf
let lru_keys t = Buf_ref.lru_keys t.buf

let level_blocks t pid ~prio = Acm_ref.level_blocks t.acm pid ~prio

let check_invariants t = Buf_ref.check_invariants t.buf

type rung = { ns : float; words : float; refs : int }

let zero = { ns = 0.0; words = 0.0; refs = 0 }

let add a b = { ns = a.ns +. b.ns; words = a.words +. b.words; refs = a.refs + b.refs }

let per_ref r =
  if r.refs = 0 then (0.0, 0.0)
  else
    let n = float_of_int r.refs in
    (r.ns /. n, r.words /. n)

let stack ~machine ~core =
  { ns = machine.ns -. core.ns; words = machine.words -. core.words; refs = machine.refs }

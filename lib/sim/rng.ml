(* The SplitMix64 state, unboxed in an 8-byte buffer: a mutable int64
   field would box a fresh int64 on every draw. *)
type t = Bytes.t

let[@inline] state t = Bytes.get_int64_ne t 0

let[@inline] set_state t s = Bytes.set_int64_ne t 0 s

let of_state s =
  let t = Bytes.create 8 in
  set_state t s;
  t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = of_state (mix (Int64.of_int seed))

let copy t = Bytes.copy t

let[@inline] bits64 t =
  let s = Int64.add (state t) golden_gamma in
  set_state t s;
  mix s

let split t = of_state (mix (bits64 t))

(* Non-negative 62-bit value, cheap and unbiased enough for simulation use. *)
let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod n

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let[@inline] float t x =
  (* 53 random bits mapped to [0, 1). *)
  let b = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  x *. (b /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

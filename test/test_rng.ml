open Acfc_sim
open Tutil

let determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    chk_bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  chk_int "streams differ" 0 !same

let copy_independent () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  chk_bool "copy continues identically" true (Rng.bits64 a = Rng.bits64 b);
  (* Advancing one does not advance the other. *)
  ignore (Rng.bits64 a);
  ignore (Rng.bits64 a);
  ignore (Rng.bits64 b);
  chk_bool "now diverged" true (Rng.bits64 a <> Rng.bits64 b)

let split_diverges () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let clashes = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr clashes
  done;
  chk_int "split stream is distinct" 0 !clashes

(* Known answers: the first outputs of [Rng.create 0], pinned as
   literals, so a change to how the generator stores its state cannot
   alter the stream unnoticed. *)
let known_answers () =
  let r = Rng.create 0 in
  List.iter
    (fun v -> chk_bool "bits64" true (Rng.bits64 r = v))
    [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L ];
  List.iter (fun v -> chk_int "int 1000" v (Rng.int r 1000)) [ 611; 686; 522 ];
  List.iter
    (fun v -> chk_int "int max_int" v (Rng.int r max_int))
    [ 801824006500076728; 3558130466400086735; 1133040290248155824 ];
  List.iter
    (fun (a, b) ->
      chk_bool "float 1" true (Rng.float r 1.0 = a);
      chk_bool "float 2" true (Rng.float r 2.0 = b))
    [
      (0x1.e77091186d196p-1, 0x1.95fbb374f2c4ep-1);
      (0x1.85a64dc00ab7bp-1, 0x1.0c43407fc177bp+0);
      (0x1.1c3eeaab30755p-1, 0x1.6a9c1e2c01989p+0);
    ];
  let s = Rng.split r in
  List.iter
    (fun (child, parent) ->
      chk_bool "split child" true (Rng.bits64 s = child);
      chk_bool "split parent" true (Rng.bits64 r = parent))
    [
      (6263376026295458474L, 9018883062403043925L);
      (5795500006345353565L, -4337222557917806714L);
      (-5697200449958371770L, 3775962213208117092L);
    ];
  let c = Rng.copy s in
  chk_bool "copy" true (Rng.bits64 c = -3206903624325226202L);
  chk_bool "copied from" true (Rng.bits64 s = -3206903624325226202L)

let int_bounds =
  qcheck "int stays in [0,n)" ~count:500
    QCheck2.Gen.(pair (int_range 1 10000) int)
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let v = Rng.int rng n in
      v >= 0 && v < n)

let int_in_bounds =
  qcheck "int_in stays in [lo,hi]" ~count:500
    QCheck2.Gen.(triple (int_range (-1000) 1000) (int_range 0 1000) int)
    (fun (lo, span, seed) ->
      let hi = lo + span in
      let rng = Rng.create seed in
      let v = Rng.int_in rng lo hi in
      v >= lo && v <= hi)

let float_bounds =
  qcheck "float stays in [0,x)" ~count:500 QCheck2.Gen.int (fun seed ->
      let rng = Rng.create seed in
      let v = Rng.float rng 3.5 in
      v >= 0.0 && v < 3.5)

let invalid_args () =
  let rng = Rng.create 0 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Rng.int_in: empty range")
    (fun () -> ignore (Rng.int_in rng 5 4));
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick rng [||]))

let shuffle_is_permutation =
  qcheck "shuffle permutes" ~count:200
    QCheck2.Gen.(pair (list_size (int_range 0 50) int) int)
    (fun (l, seed) ->
      let rng = Rng.create seed in
      let a = Array.of_list l in
      Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let exponential_mean () =
  let rng = Rng.create 11 in
  let n = 20000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.exponential rng ~mean:4.0 in
    chk_bool "non-negative" true (v >= 0.0);
    total := !total +. v
  done;
  let mean = !total /. float_of_int n in
  chk_bool "mean within 5%" true (Float.abs (mean -. 4.0) < 0.2)

let uniformity () =
  (* Chi-squared-ish sanity: each of 10 buckets gets 10% +- 2%. *)
  let rng = Rng.create 3 in
  let buckets = Array.make 10 0 in
  let n = 50000 in
  for _ = 1 to n do
    let i = Rng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      chk_bool "bucket near 0.1" true (Float.abs (frac -. 0.1) < 0.02))
    buckets

let suites =
  [
    ( "rng",
      [
        case "determinism" determinism;
        case "different seeds" different_seeds;
        case "copy" copy_independent;
        case "split" split_diverges;
        case "known answers" known_answers;
        case "invalid arguments" invalid_args;
        case "exponential mean" exponential_mean;
        case "uniformity" uniformity;
        int_bounds;
        int_in_bounds;
        float_bounds;
        shuffle_is_permutation;
      ] );
  ]

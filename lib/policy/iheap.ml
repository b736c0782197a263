(* Indexed binary min-heaps over int slots on columnar storage. A
   {!store} holds the per-slot columns — the two keys and the slot's
   position in its heap — and a heap holds only its array of slots, so
   many heaps can share one store as long as each slot sits in at most
   one of them. Nothing is allocated except when a column or a heap
   array grows. *)

type store = {
  mutable hi : int array;  (* slot -> primary key *)
  mutable lo : int array;  (* slot -> secondary key *)
  mutable at : int array;  (* slot -> index in its heap, -1 when in none *)
}

type t = { mutable slots : int array; mutable len : int }

let store n = { hi = Array.make n 0; lo = Array.make n 0; at = Array.make n (-1) }

let widen col n fill =
  let c = Array.make n fill in
  Array.blit col 0 c 0 (Array.length col);
  c

let reserve st n =
  if n > Array.length st.at then begin
    st.hi <- widen st.hi n 0;
    st.lo <- widen st.lo n 0;
    st.at <- widen st.at n (-1)
  end

let create n = { slots = Array.make n 0; len = 0 }

let length h = h.len

let is_empty h = h.len = 0

let top h =
  if h.len = 0 then invalid_arg "Iheap.top: empty heap";
  h.slots.(0)

let[@inline] less st a b =
  let ha = st.hi.(a) and hb = st.hi.(b) in
  ha < hb || (ha = hb && st.lo.(a) < st.lo.(b))

let[@inline] put st h i s =
  h.slots.(i) <- s;
  st.at.(s) <- i

let rec up st h i s =
  if i = 0 then put st h 0 s
  else begin
    let p = (i - 1) / 2 in
    let ps = h.slots.(p) in
    if less st s ps then begin
      put st h i ps;
      up st h p s
    end
    else put st h i s
  end

let rec down st h i s =
  let l = (2 * i) + 1 in
  if l >= h.len then put st h i s
  else begin
    let r = l + 1 in
    let c = if r < h.len && less st h.slots.(r) h.slots.(l) then r else l in
    let cs = h.slots.(c) in
    if less st cs s then begin
      put st h i cs;
      down st h c s
    end
    else put st h i s
  end

(* Restore the heap order around [s], at index [i], after its keys
   changed in either direction. *)
let settle st h i s =
  if i > 0 && less st s h.slots.((i - 1) / 2) then up st h i s else down st h i s

let add st h s ~hi ~lo =
  if h.len = Array.length h.slots then
    h.slots <- widen h.slots (Stdlib.max 4 (2 * h.len)) 0;
  st.hi.(s) <- hi;
  st.lo.(s) <- lo;
  h.len <- h.len + 1;
  up st h (h.len - 1) s

let rekey st h s ~hi ~lo =
  st.hi.(s) <- hi;
  st.lo.(s) <- lo;
  settle st h st.at.(s) s

let remove st h s =
  let i = st.at.(s) in
  st.at.(s) <- -1;
  h.len <- h.len - 1;
  if i < h.len then settle st h i h.slots.(h.len)

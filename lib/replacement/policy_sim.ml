module type POLICY = Acfc_policy.Policy_core.CORE

type result = {
  policy : string;
  capacity : int;
  references : int;
  hits : int;
  misses : int;
}

let run ((module P : POLICY) as policy) ~capacity trace =
  let hits =
    Acfc_policy.Policy_core.replay policy ~capacity ~evicted:(fun _ _ -> ()) trace
  in
  let references = Array.length trace in
  { policy = P.name; capacity; references; hits; misses = references - hits }

let miss_ratio r =
  if r.references = 0 then 0.0 else float_of_int r.misses /. float_of_int r.references

(* Names pad to the longest registered one, so every row lines up. *)
let name_width =
  List.fold_left (fun w n -> max w (String.length n)) 0 Acfc_policy.Registry.names

let pp_result ppf r =
  Format.fprintf ppf "%-*s cap=%-6d refs=%-8d misses=%-8d (%.1f%%)" name_width r.policy
    r.capacity r.references r.misses (100.0 *. miss_ratio r)

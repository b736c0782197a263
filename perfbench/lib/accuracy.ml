module Paper_data = Acfc_experiments.Paper_data

let paper_ratio app mb =
  match Paper_data.lookup_ios app ~mb with
  | Some (original, lru_sp) -> lru_sp /. original
  | None ->
    invalid_arg (Printf.sprintf "Accuracy: no Table 6 cell for %s at %g MB" app mb)

let paper_io_err cells =
  if cells = [] then invalid_arg "Accuracy.paper_io_err: no cells";
  let total =
    List.fold_left
      (fun acc (app, mb, measured) -> acc +. Float.abs (measured -. paper_ratio app mb))
      0.0 cells
  in
  total /. float_of_int (List.length cells)

type t = {
  name : string;
  capacity_blocks : int;
  min_seek_ms : float;
  avg_seek_ms : float;
  max_seek_ms : float;
  avg_rot_ms : float;
  transfer_mb_per_s : float;
  overhead_ms : float;
  seq_rot_factor : float;
}

let block_bytes = 8192

let mb = 1024 * 1024

let rz56 =
  {
    name = "RZ56";
    capacity_blocks = 665 * mb / block_bytes;
    min_seek_ms = 4.0;
    avg_seek_ms = 16.0;
    max_seek_ms = 35.0;
    avg_rot_ms = 8.3;
    transfer_mb_per_s = 1.875;
    overhead_ms = 1.0;
    seq_rot_factor = 0.2;
  }

let rz26 =
  {
    name = "RZ26";
    capacity_blocks = 1050 * mb / block_bytes;
    min_seek_ms = 2.5;
    avg_seek_ms = 10.5;
    max_seek_ms = 26.0;
    avg_rot_ms = 5.54;
    transfer_mb_per_s = 3.3;
    overhead_ms = 1.0;
    seq_rot_factor = 0.2;
  }

let transfer_time_s p =
  float_of_int block_bytes /. (p.transfer_mb_per_s *. float_of_int mb)

(* Inlined, so the disk model gets its float result unboxed. *)
let[@inline] seek_time_s p ~distance =
  if distance < 0 then invalid_arg "Params.seek_time_s: negative distance";
  if distance = 0 then 0.0
  else begin
    (* sqrt seek curve through (1, min_seek) and (capacity/3, avg_seek). *)
    let avg_distance = float_of_int p.capacity_blocks /. 3.0 in
    let frac = sqrt (float_of_int distance /. avg_distance) in
    let ms = p.min_seek_ms +. ((p.avg_seek_ms -. p.min_seek_ms) *. frac) in
    Float.min ms p.max_seek_ms /. 1000.0
  end

let pp ppf p =
  Format.fprintf ppf "%s(%d blk, seek %.1fms, rot %.2fms, %.3gMB/s)" p.name
    p.capacity_blocks p.avg_seek_ms p.avg_rot_ms p.transfer_mb_per_s

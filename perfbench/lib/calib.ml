(* Host-speed calibration: a pinned child process times a fixed kernel while
   the workload runs, and each pass is rescaled by it.  See calib.mli. *)

let table = Hashtbl.create 4096

let kernel () =
  Hashtbl.reset table;
  for i = 1 to 3_000 do
    Hashtbl.replace table (string_of_int (i * 7919 mod 50_000)) [ i; i + 1 ]
  done;
  Hashtbl.length table

let reference_s = 6e-4
let period = 0.05

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let serve () =
  let samples = ref [] in
  let rec loop () =
    match Unix.select [ Unix.stdin ] [] [] period with
    | [], _, _ ->
      let t = Unix.gettimeofday () and c0 = cpu_s () in
      ignore (Sys.opaque_identity (kernel ()));
      samples := (t, cpu_s () -. c0) :: !samples;
      loop ()
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ();
  List.iter (fun (t, c) -> Printf.printf "%.6f %.9f\n" t c) (List.rev !samples);
  exit 0

type t = { pid : int; input : Unix.file_descr; output : in_channel }

let start () =
  let child_in, input = Unix.pipe ~cloexec:true () in
  let output_fd, child_out = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name [| Sys.executable_name; "--calibrate" |] child_in child_out Unix.stderr in
  Unix.close child_in;
  Unix.close child_out;
  { pid; input; output = Unix.in_channel_of_descr output_fd }

let stop t =
  Unix.close t.input;
  let rec read acc =
    match input_line t.output with
    | line -> read (Scanf.sscanf line "%f %f" (fun a b -> (a, b)) :: acc)
    | exception End_of_file -> List.rev acc
  in
  let samples = Fun.protect ~finally:(fun () -> close_in t.output) (fun () -> read []) in
  let rec wait () = try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error (Unix.EINTR, _, _) -> wait () in
  wait ();
  Array.of_list samples

let kernel_s samples ~t0 ~t1 =
  let mid = (t0 +. t1) /. 2. and half = Float.max 0.5 ((t1 -. t0) /. 2.) in
  let inside = Array.to_list samples |> List.filter (fun (t, _) -> Float.abs (t -. mid) <= half) |> List.map snd in
  if inside = [] then failwith "Calib.kernel_s: no calibration sample near the pass" else Stats.median inside

let rescale samples ~t0 ~t1 ~cpu = cpu *. reference_s /. kernel_s samples ~t0 ~t1

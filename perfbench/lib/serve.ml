(* fs-serve: one closed-loop client driving Perennial_fs.Fs through
   Sched.Runner.run, one operation per call, with a crash + recovery every
   [crash_every] operations. *)

module V = Tslang.Value
module Spec = Tslang.Spec
module Fs = Perennial_fs.Fs
module G = Serve_gen

let ops_per_pass = 4_000
let crash_every = 125

type item = Op of { call : Spec.call; prog : (Fs.world, V.t) Sched.Prog.t; write : bool } | Crash

type setup = {
  params : Fs.params;
  wal_params : Fs.params;
  init : Fs.world;
  wal_init : Fs.world;
  spec : Gfs.Fs.t Spec.t;
  items : item array;
  wal_items : item array;
}

let items p stream =
  let op call_prog write =
    let call, prog = call_prog in
    Op { call; prog; write }
  in
  Array.of_list
    (List.map
       (fun o ->
         let w = G.is_write o in
         match o with
         | G.Read (d, f) -> op (Fs.read_call p d f) w
         | G.Readdir d -> op (Fs.readdir_call p d) w
         | G.Append (d, f, data) -> op (Fs.append_call p d f data) w
         | G.Create (d, f) -> op (Fs.create_call p d f) w
         | G.Unlink (d, f) -> op (Fs.unlink_call p d f) w
         | G.Rename (src, dst) -> op (Fs.rename_call p ~src ~dst) w
         | G.Crash -> Crash)
       stream)

let setup ~seed =
  let lay = G.layout () in
  let params = Fs.params lay and wal_params = Fs.params ~backend:`Wal lay in
  let stream = G.generate ~seed ~ops:ops_per_pass ~crash_every in
  {
    params;
    wal_params;
    init = Fs.init_world params ~dirs:G.dir_names ~files:[];
    wal_init = Fs.init_world wal_params ~dirs:G.dir_names ~files:[];
    spec = Fs.spec params ~dirs:G.dir_names ~files:[];
    items = items params stream;
    wal_items = items wal_params stream;
  }

type pass = {
  wall : float;
  words : float;
  responses : V.t array;  (** one per operation, in stream order *)
  op_us : float array;
  write : bool array;
  recover_us : float list;
  recover_failed : int;
  steps : int;
  disk_writes : int;
}

let is_disk_write (_, label) = String.starts_with ~prefix:"disk_write" label

(* A response the spec never gives, so the oracle counts it as a failure. *)
let exn_response e = V.str ("exception: " ^ Printexc.to_string e)

(* [probes] wraps the operations' programs, charging the first probe, and
   crash + recovery, charging the second, for the traced pass; the
   untraced pass runs the programs exactly as built. *)
let run_pass ?probes p init items =
  let traced = probes <> None in
  let use pick = Option.iter (fun ps -> Probe.use (pick ps)) probes in
  let wrap prog = if traced then Probe.program prog else prog in
  let crash w = if traced then Probe.crash_world Fs.crash_world w else Fs.crash_world w in
  let n = Array.fold_left (fun n -> function Op _ -> n + 1 | Crash -> n) 0 items in
  let responses = Array.make n V.unit and op_us = Array.make n 0. and write = Array.make n false in
  let recover_us = ref [] and recover_failed = ref 0 and steps = ref 0 and disk_writes = ref 0 in
  let w = ref init and i = ref 0 in
  let w0 = Gc.minor_words () in
  let t0 = Probe.now () in
  Array.iter
    (function
      | Op { prog; write = wr; _ } ->
        use fst;
        let s = Probe.now () in
        let r = match Sched.Runner.run !w [ wrap prog ] with o -> Ok o | exception e -> Error e in
        op_us.(!i) <- (Probe.now () -. s) *. 1e6;
        (match r with
        | Ok o ->
          w := o.world;
          responses.(!i) <- o.results.(0);
          steps := !steps + o.steps;
          disk_writes := !disk_writes + List.length (List.filter is_disk_write o.trace)
        | Error e -> responses.(!i) <- exn_response e);
        write.(!i) <- wr;
        incr i
      | Crash ->
        use snd;
        let s = Probe.now () in
        (match Sched.Runner.run1 (crash !w) (wrap (Fs.recover p)) with
        | w', _ -> w := w'
        | exception _ -> incr recover_failed);
        recover_us := ((Probe.now () -. s) *. 1e6) :: !recover_us)
    items;
  let wall = Probe.now () -. t0 in
  {
    wall;
    words = Gc.minor_words () -. w0;
    responses;
    op_us;
    write;
    recover_us = !recover_us;
    recover_failed = !recover_failed;
    steps = !steps;
    disk_writes = !disk_writes;
  }

(* The oracle: replay the responses against the spec, tracking every spec
   state consistent with them; a response outside the spec's outcomes is a
   failure. *)
let mismatches spec items responses =
  let dedup states = List.sort_uniq spec.Spec.compare_state states in
  let states = ref [ spec.Spec.init ] and i = ref 0 and bad = ref 0 in
  Array.iter
    (function
      | Op { call; _ } ->
        let outs = List.concat_map (fun st -> Spec.op_outcomes spec st call) !states in
        (match List.filter (fun (_, v) -> V.equal v responses.(!i)) outs with
        | [] ->
          incr bad;
          if outs <> [] then states := dedup (List.map fst outs)
        | ok -> states := dedup (List.map fst ok));
        incr i
      | Crash -> states := dedup (List.concat_map (Spec.crash_outcomes spec) !states))
    items;
  !bad

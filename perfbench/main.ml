(* The repository's benchmark: time-to-verdict of the refinement checker and
   served operations of the verified storage stack.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload for about S seconds and prints, as its last line, a
   JSON object {correct, attempted, failed, metrics}.  --trace 0 reports the
   end-to-end metrics, measured with nothing wrapped; --trace 1 runs the
   workload once untraced and then with every callback the library calls
   wrapped, and reports the per-layer metrics.  --workload all runs every
   workload both ways and prints every metric.  See README.md. *)

module R = Perennial_core.Refinement
module C = Perfbench.Checks
module S = Perfbench.Serve
module St = Perfbench.Stats
module Probe = Perfbench.Probe
module Calib = Perfbench.Calib

let now = Probe.now

type metric = { name : string; unit : string; value : float }

type outcome = { correct : bool; attempted : int; failed : int; metrics : metric list }

let m name unit value = { name; unit; value }
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* The CPU time of a piece of a pass, and when it ran, for Calib.rescale. *)
type timed = { t0 : float; t1 : float; cpu : float }

let timed f =
  let t0 = now () and c0 = Calib.cpu_s () in
  let r = f () in
  let cpu = Calib.cpu_s () -. c0 in
  (r, { t0; t1 = now (); cpu })

(* The median pass, each pass the sum of its pieces, each piece rescaled by
   the calibration kernel sampled while it ran.  Neighbours on the shared
   host slow a pass by up to 40% for seconds to minutes at a time; the
   kernel slows with it.  A checker pass's pieces are its instances, so a
   slowdown is matched to the instance it hit. *)
let rescaled_median samples passes =
  let rescaled pieces = List.fold_left (fun a { t0; t1; cpu } -> a +. Calib.rescale samples ~t0 ~t1 ~cpu) 0. pieces in
  St.median (List.map rescaled passes)

(* Run [measure] with the calibration child sampling, and stop the child on
   every way out. *)
let calibrated measure =
  let c = Calib.start () in
  match measure () with
  | r -> (r, Calib.stop c)
  | exception e ->
    ignore (Calib.stop c);
    raise e

(* One set-up sample: set up repeatedly for [setup_window] seconds and take
   the mean, since one checker set-up takes microseconds, too short to time
   alone.  A run samples after every pass, and at least [setup_samples]
   times, so the median spans the same stretch of host load as the passes
   do.  Each sample starts from a fully collected heap, as a pass does.  No
   sample precedes the first pass, whose heap peak would otherwise depend on
   how many set-ups fit in a window. *)
let setup_samples = 5
let setup_window = 0.05

let setup_sample f =
  Gc.compact ();
  let t0 = now () and c0 = Calib.cpu_s () in
  let rec go n = if now () -. t0 < setup_window then (ignore (f ()); go (n + 1)) else n in
  let n = go 0 in
  { t0; t1 = now (); cpu = (Calib.cpu_s () -. c0) /. fi n }

(* Peak major heap of the first measured pass, sampled at the end of every
   major cycle and of the pass.  Later passes and the set-up loop are left
   out: how many of them fit in the time varies from run to run. *)
let heap_peak = ref 0
let heap_tracking = ref false

let sample_heap () = if !heap_tracking then heap_peak := max !heap_peak (Gc.quick_stat ()).Gc.heap_words
let peak_heap_mb () = fi (!heap_peak * (Sys.word_size / 8)) /. 1e6

let start_measuring () =
  Gc.compact ();
  heap_peak := 0;
  heap_tracking := true;
  ignore (Gc.create_alarm sample_heap);
  now ()

(* Run [f] until [seconds] have passed since [start], at least once, with
   [after] after each run.  Each run starts from a fully collected heap, so
   it does not inherit the previous run's garbage and GC pacing. *)
let repeat ?(after = ignore) ~start ~seconds f =
  let rec go acc =
    Gc.compact ();
    let acc = f () :: acc in
    sample_heap ();
    heap_tracking := false;
    after ();
    if now () -. start >= seconds then List.rev acc else go acc
  in
  go []

(* Set-up samples taken after each pass, topped up to [setup_samples]. *)
let sampling_setup setup passes =
  let samples = ref [] in
  let after () = samples := setup_sample setup :: !samples in
  let result = passes ~after in
  while List.length !samples < setup_samples do after () done;
  (!samples, result)

(* Per-name median over the per-pass metric lists of a traced run. *)
let median_metrics = function
  | [] -> []
  | first :: _ as passes ->
    List.map
      (fun x -> { x with value = St.median (List.map (fun ms -> (List.find (fun y -> y.name = x.name) ms).value) passes) })
      first

(* The untraced figures: set-up and check time, rescaled, and the raw CPU
   time and kernel time behind them on a line of their own. *)
let end_to_end_rescaled samples ~setups ~passes =
  Printf.printf "passes %d, median pass CPU %.6g s; calibration samples %d, median kernel %.6g s\n"
    (List.length passes)
    (St.median (List.map (List.fold_left (fun a t -> a +. t.cpu) 0.) passes))
    (Array.length samples)
    (St.median (Array.to_list (Array.map snd samples)));
  [
    m "setup_s" "s" (rescaled_median samples (List.map (fun t -> [ t ]) setups));
    m "check_s" "s" (rescaled_median samples passes);
    m "peak_heap_mb" "MB" (peak_heap_mb ());
  ]

(* Every per-layer metric, in BENCHMARK.json order; a layer a workload does
   not exercise reads 0. *)
let layer_names =
  [
    ("refinement.self_s", "s"); ("spec.compare_calls_per_step", "calls/step");
    ("spec.step_calls_per_step", "calls/step"); ("refinement.max_candidates", "count");
    ("refinement.dedup_hits", "count"); ("refinement.executions", "count"); ("refinement.steps", "count");
    ("explore.commutations_pruned", "count"); ("explore.sleep_skips", "count"); ("explore.crash_skips", "count");
    ("fingerprint.render_s", "s"); ("fingerprint.hits", "count"); ("fingerprint.hit_ratio", "frac");
    ("fault.injected", "count"); ("fault.schedules", "count"); ("refinement.crashes_injected", "count");
    ("recovery.crash_world_s", "s"); ("rpc.retries", "count"); ("rpc.cache_hits", "count");
    ("prog.action_s", "s"); ("prog.actions_per_step", "calls/step"); ("random.walks_per_s", "1/s");
    ("random.steps", "count"); ("refinement.words_per_step", "words/step"); ("ops_per_s", "1/s");
    ("op_p50_us", "us"); ("op_p99_us", "us"); ("read_p99_us", "us"); ("write_p99_us", "us");
    ("recover_p50_us", "us"); ("op_samples", "count"); ("read_samples", "count"); ("write_samples", "count");
    ("recover_samples", "count"); ("runner.self_us_per_op", "us"); ("runner.steps_per_op", "steps/op");
    ("fs.self_us_per_op", "us"); ("txn_log.self_us_per_op", "us"); ("disk.self_us_per_op", "us");
    ("disk.writes_per_op", "writes/op"); ("txn_log.recover_us", "us"); ("alloc.words_per_op", "words/op");
    ("txn_log.commit_us.direct", "us"); ("txn_log.commit_us.wal", "us"); ("wal.self_us_per_op", "us");
    ("trace.overhead_frac", "frac"); ("failed_frac", "frac");
  ]

let per_layer measured =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun x -> x.name = name) measured with
      | Some x ->
        assert (x.unit = unit);
        x
      | None -> m name unit 0.)
    layer_names

(* ---- checker workloads ---- *)

type check_pass = { wall : float; words : float; results : (C.instance * R.result * timed) list }

let check_pass ?probe instances =
  Option.iter Probe.use probe;
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let results =
    List.map
      (fun (i : C.instance) ->
        let r, t = timed (fun () -> i.run ~traced:(probe <> None)) in
        (i, r, t))
      instances
  in
  { wall = now () -. t0; words = Gc.minor_words () -. w0; results }

let total f p = fi (List.fold_left (fun a (_, r, _) -> a + f (C.stats_of r)) 0 p.results)

(* The counters a traced run must reproduce exactly. *)
let counters p = List.map (fun (_, r, _) -> let s = C.stats_of r in (s.R.executions, s.R.steps, s.R.fingerprint_hits)) p.results

let verdict_failures p = List.length (List.filter (fun (i, r, _) -> not (C.verdict_ok i r)) p.results)

let random_share p =
  List.fold_left
    (fun (walks, wall, steps) ((i : C.instance), r, t) ->
      if i.walks = 0 then (walks, wall, steps) else (walks + i.walks, wall +. t.t1 -. t.t0, steps + (C.stats_of r).R.steps))
    (0, 0., 0) p.results

let check_layers base =
  let steps = total (fun s -> s.R.steps) base in
  let walks, random_wall, random_steps = random_share base in
  let hits = total (fun s -> s.R.fingerprint_hits) base in
  let fp_total = hits +. total (fun s -> s.R.fingerprint_misses) base in
  [
    m "refinement.max_candidates" "count"
      (fi (List.fold_left (fun a (_, r, _) -> max a (C.stats_of r).R.max_candidates) 0 base.results));
    m "refinement.dedup_hits" "count" (total (fun s -> s.R.dedup_hits) base);
    m "refinement.executions" "count" (total (fun s -> s.R.executions) base);
    m "refinement.steps" "count" steps;
    m "explore.commutations_pruned" "count" (total (fun s -> s.R.commutations_pruned) base);
    m "explore.sleep_skips" "count" (total (fun s -> s.R.sleep_skips) base);
    m "explore.crash_skips" "count" (total (fun s -> s.R.crash_skips) base);
    m "fingerprint.hits" "count" hits;
    m "fingerprint.hit_ratio" "frac" (ratio hits fp_total);
    m "fault.injected" "count" (total (fun s -> s.R.faults_injected) base);
    m "fault.schedules" "count" (total (fun s -> s.R.fault_schedules) base);
    m "refinement.crashes_injected" "count" (total (fun s -> s.R.crashes_injected) base);
    m "rpc.retries" "count" (total (fun s -> s.R.retries_observed) base);
    m "rpc.cache_hits" "count" (total (fun s -> s.R.cache_hits) base);
    m "random.walks_per_s" "1/s" (ratio (fi walks) random_wall);
    m "random.steps" "count" (fi random_steps);
    m "refinement.words_per_step" "words/step" (ratio base.words steps);
  ]

let traced_check_layers ~base ~steps ((t : Probe.t), p) =
  [
    m "refinement.self_s" "s" (p.wall -. t.action_s -. t.render_s -. t.crash_world_s);
    m "spec.compare_calls_per_step" "calls/step" (ratio (fi t.compare_calls) steps);
    m "spec.step_calls_per_step" "calls/step" (ratio (fi t.step_calls) steps);
    m "fingerprint.render_s" "s" t.render_s;
    m "recovery.crash_world_s" "s" t.crash_world_s;
    m "prog.action_s" "s" t.action_s;
    m "prog.actions_per_step" "calls/step" (ratio (fi t.action_calls) steps);
    m "trace.overhead_frac" "frac" ((p.wall /. base.wall) -. 1.);
  ]

let run_checker instances ~seed ~seconds ~trace =
  let setup () = instances ~seed in
  let insts = setup () in
  let start = start_measuring () in
  if not trace then begin
    let (setups, passes), samples =
      calibrated (fun () -> sampling_setup setup (fun ~after -> repeat ~after ~start ~seconds (fun () -> check_pass insts)))
    in
    let first = List.hd passes in
    let failed = List.fold_left (fun a p -> a + verdict_failures p) 0 passes in
    let repeatable = List.for_all (fun p -> counters p = counters first) passes in
    {
      correct = failed = 0 && repeatable;
      attempted = List.length passes * List.length insts;
      failed;
      metrics =
        end_to_end_rescaled samples ~setups ~passes:(List.map (fun p -> List.map (fun (_, _, t) -> t) p.results) passes);
    }
  end
  else begin
    let base = check_pass insts in
    let traced =
      repeat ~start ~seconds (fun () ->
          let t = Probe.create () in
          (t, check_pass ~probe:t insts))
    in
    let steps = total (fun s -> s.R.steps) base in
    let layered = median_metrics (List.map (traced_check_layers ~base ~steps) traced) in
    let failed = verdict_failures base + List.fold_left (fun a (_, p) -> a + verdict_failures p) 0 traced in
    let attempted = (1 + List.length traced) * List.length insts in
    let unchanged = List.for_all (fun (_, p) -> counters p = counters base) traced in
    {
      correct = failed = 0 && unchanged;
      attempted;
      failed;
      metrics = per_layer ((m "failed_frac" "frac" (ratio (fi failed) (fi attempted)) :: check_layers base) @ layered);
    }
  end

(* ---- fs-serve ---- *)

let serve_pass ?probes (s : S.setup) = S.run_pass ?probes s.params s.init s.items

let op_samples (p : S.pass) keep =
  List.filteri (fun i _ -> keep p.write.(i)) (Array.to_list p.op_us)

let serve_latencies (p : S.pass) =
  let n = fi (Array.length p.op_us) in
  let all = op_samples p (fun _ -> true) and reads = op_samples p not and writes = op_samples p Fun.id in
  [
    m "ops_per_s" "1/s" (n /. p.wall);
    m "op_p50_us" "us" (St.percentile ~p:50. all);
    m "op_p99_us" "us" (St.percentile ~p:99. all);
    m "read_p99_us" "us" (St.percentile ~p:99. reads);
    m "write_p99_us" "us" (St.percentile ~p:99. writes);
    m "recover_p50_us" "us" (St.percentile ~p:50. p.recover_us);
    m "op_samples" "count" n;
    m "read_samples" "count" (fi (List.length reads));
    m "write_samples" "count" (fi (List.length writes));
    m "recover_samples" "count" (fi (List.length p.recover_us));
    m "runner.steps_per_op" "steps/op" (fi p.steps /. n);
    m "disk.writes_per_op" "writes/op" (fi p.disk_writes /. n);
    m "alloc.words_per_op" "words/op" (p.words /. n);
  ]

(* Every tail figure must rest on at least ten samples beyond it. *)
let tails_supported (p : S.pass) =
  let n keep = List.length (op_samples p keep) in
  St.supported ~p:99. (n (fun _ -> true))
  && St.supported ~p:99. (n not)
  && St.supported ~p:99. (n Fun.id)
  && St.supported ~p:50. (List.length p.recover_us)

let traced_serve_layers ~(base : S.pass) (((ops : Probe.t), (rec_ : Probe.t), (p : S.pass)), ((wal : Probe.t), _, _)) =
  let n = fi (Array.length p.op_us) in
  let per_op s = s *. 1e6 /. n in
  let per_span (sp : Probe.spans) = ratio (sp.incl_s *. 1e6) (fi sp.entered) in
  [
    m "runner.self_us_per_op" "us" ((Array.fold_left ( +. ) 0. p.op_us /. n) -. per_op ops.action_s);
    m "fs.self_us_per_op" "us" (per_op (Probe.layer_s ops "fs"));
    m "txn_log.self_us_per_op" "us" (per_op (Probe.layer_s ops "txn_log"));
    m "disk.self_us_per_op" "us" (per_op (Probe.layer_s ops "disk"));
    m "txn_log.recover_us" "us" (per_span rec_.recover);
    m "recovery.crash_world_s" "s" rec_.crash_world_s;
    m "prog.action_s" "s" ops.action_s;
    m "txn_log.commit_us.direct" "us" (per_span ops.commit);
    m "txn_log.commit_us.wal" "us" (per_span wal.commit);
    m "wal.self_us_per_op" "us" (per_op wal.commit.incl_s);
    m "prog.actions_per_step" "calls/step" (fi ops.action_calls /. fi p.steps);
    m "trace.overhead_frac" "frac" ((p.wall /. base.wall) -. 1.);
  ]

let run_serve ~seed ~seconds ~trace =
  let setup () = S.setup ~seed in
  let s = setup () in
  let start = start_measuring () in
  let oracle (p : S.pass) = S.mismatches s.spec s.items p.responses + p.recover_failed in
  (* Later passes replay the same stream from the same formatted disk, so
     they must answer exactly as the first did. *)
  let differs (base : S.pass) (p : S.pass) =
    let d = ref p.recover_failed in
    Array.iteri (fun i v -> if not (Tslang.Value.equal v base.responses.(i)) then incr d) p.responses;
    !d
  in
  let n_ops (p : S.pass) = Array.length p.responses in
  if not trace then begin
    let (setups, timed_passes), samples =
      calibrated (fun () ->
          sampling_setup setup (fun ~after -> repeat ~after ~start ~seconds (fun () -> timed (fun () -> serve_pass s))))
    in
    let passes = List.map fst timed_passes in
    let first = List.hd passes in
    let failed = oracle first + List.fold_left (fun a p -> a + differs first p) 0 (List.tl passes) in
    {
      correct = failed = 0 && List.for_all (fun (p : S.pass) -> p.steps = first.steps) passes;
      attempted = List.fold_left (fun a p -> a + n_ops p) 0 passes;
      failed;
      metrics = end_to_end_rescaled samples ~setups ~passes:(List.map (fun (_, t) -> [ t ]) timed_passes);
    }
  end
  else begin
    let base = serve_pass s in
    (* The same stream through both journal backends, traced. *)
    let traced =
      repeat ~start ~seconds (fun () ->
          let ops = Probe.create () and rec_ = Probe.create () in
          let direct = (ops, rec_, serve_pass ~probes:(ops, rec_) s) in
          let wops = Probe.create () and wrec = Probe.create () in
          (direct, (wops, wrec, S.run_pass ~probes:(wops, wrec) s.wal_params s.wal_init s.wal_items)))
    in
    let layered = median_metrics (List.map (traced_serve_layers ~base) traced) in
    let failed =
      oracle base
      + List.fold_left
          (fun a ((_, _, d), (_, _, w)) -> a + differs base d + differs base w)
          0 traced
    in
    let attempted = n_ops base * (1 + (2 * List.length traced)) in
    let unchanged = List.for_all (fun ((_, _, (d : S.pass)), _) -> d.steps = base.steps) traced in
    {
      correct = failed = 0 && unchanged && tails_supported base;
      attempted;
      failed;
      metrics = per_layer ((m "failed_frac" "frac" (ratio (fi failed) (fi attempted)) :: serve_latencies base) @ layered);
    }
  end

(* ---- command line ---- *)

let workloads =
  [
    ("net-dpor", run_checker C.net_dpor);
    ("mailboat-naive", run_checker C.mailboat_naive);
    ("fs-crash-faults", run_checker C.fs_crash_faults);
    ("fs-serve", run_serve);
  ]

let json_of o =
  let metric x = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" o.correct o.attempted
    o.failed
    (String.concat ", " (List.map metric o.metrics))

let print_outcome name o =
  List.iter (fun x -> Printf.printf "%-16s %-30s %14.6g %s\n" name x.name x.value x.unit) o.metrics;
  Printf.printf "%-16s correct=%b attempted=%d failed=%d failed_frac=%g\n%!" name o.correct o.attempted o.failed
    (ratio (fi o.failed) (fi o.attempted))

let usage = "main.exe --workload (net-dpor|mailboat-naive|fs-crash-faults|fs-serve|all) --seed N --seconds S --trace 0|1"

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--calibrate" then Calib.serve ();
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run, or all");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run name f tr =
    let o = f ~seed:!seed ~seconds:!seconds ~trace:tr in
    print_outcome name o;
    o
  in
  match (!workload, List.assoc_opt !workload workloads) with
  | "all", _ ->
    let ok =
      List.for_all Fun.id
        (List.concat_map
           (fun (name, f) -> List.map (fun tr -> (run name f tr).correct) [ false; true ])
           workloads)
    in
    exit (if ok then 0 else 1)
  | _, Some f when !trace = 0 || !trace = 1 ->
    let o = run !workload f (!trace = 1) in
    print_endline (json_of o)
  | _ ->
    prerr_endline usage;
    exit 2
